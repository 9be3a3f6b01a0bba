//! Differential suite for the searches run by the workspace's one
//! bounded explorer (`Lts::search`).
//!
//! `HistLts` is built by the explorer and answers "shortest path to the
//! first edge satisfying X" from the parents it records. The joint
//! deadlock search (`find_joint_deadlock`) stops the explorer at the
//! first stuck joint state, and the cost check (`check_cost_bound_lts`)
//! explores `(state, depth)` and then `(node, cost)` graphs. This suite
//! checks each against a literal transcription kept here, a
//! breadth-first loop with its own queue, state index and parent links:
//!
//! - the loop `HistLts::build_bounded` used to run over a
//!   `HashMap<Hist, usize>`, and a search from the initial state that
//!   stops at the first matching edge. States, ordered edges, the bound
//!   and every witness path must be equal;
//! - the joint search over `Vec<SymState>` for a network built as lint's
//!   `SUFS009` builds it (every client running its first valid plan).
//!   Deadlocks, their schedules and `BoundExceeded` must be equal at a
//!   range of small bounds;
//! - the two-phase cost check calling the successor function in both
//!   phases, over every client's symbolic space under its first valid
//!   plan and over every client and service expression, for each policy
//!   the scenario mentions. Verdicts and the state bound must be equal.
//!
//! Inputs: every client and service of the committed corpus, the
//! shipped scenarios and fresh generator seeds with every policy layer.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::Hash;

use sufs_core::multi::{find_joint_deadlock, ClientSpec, JointDeadlock};
use sufs_core::plans::DEFAULT_PLAN_CAP;
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::verify::{PlanVerdict, VerifyError};
use sufs_core::{enumerate_plans, verify_plan};
use sufs_corpus::{generate, GenConfig, PolicyMix, PROFILES};
use sufs_hexpr::semantics::successors;
use sufs_hexpr::{parse_hist, Event, Hist, HistLts, Label, Location, PolicyRef};
use sufs_net::semantics::active_services;
use sufs_net::symbolic::{symbolic_successors, symbolic_successors_with_load, SymState};
use sufs_net::Repository;
use sufs_policy::cost::{check_cost_bound_lts, CostBound, CostModel, CostVerdict};

/// The explored states and their ordered `(label, target)` edges.
type Graph = (Vec<Hist>, Vec<Vec<(Label, usize)>>);

/// The literal breadth-first construction: a state index keyed by
/// cloned expressions, states numbered on discovery; `None` past
/// `bound` states.
fn literal_build(h: &Hist, bound: usize) -> Option<Graph> {
    let mut states: Vec<Hist> = vec![h.clone()];
    let mut index: HashMap<Hist, usize> = HashMap::new();
    index.insert(h.clone(), 0);
    let mut edges: Vec<Vec<(Label, usize)>> = Vec::new();
    let mut next = 0usize;
    while next < states.len() {
        let state = states[next].clone();
        let mut out = Vec::new();
        for (label, succ) in successors(&state) {
            let id = match index.get(&succ) {
                Some(&id) => id,
                None => {
                    let id = states.len();
                    if id >= bound {
                        return None;
                    }
                    index.insert(succ.clone(), id);
                    states.push(succ);
                    id
                }
            };
            out.push((label, id));
        }
        edges.push(out);
        next += 1;
    }
    Some((states, edges))
}

/// The literal shortest path from state `0` ending with an edge
/// labelled `target`: breadth first, stopping at the first such edge.
fn literal_path(edges: &[Vec<(Label, usize)>], target: &Label) -> Option<Vec<Label>> {
    let mut parent: Vec<Option<(usize, Label)>> = vec![None; edges.len()];
    let mut seen = vec![false; edges.len()];
    seen[0] = true;
    let mut queue = VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        for (label, v) in &edges[u] {
            if label == target {
                let mut path = vec![label.clone()];
                let mut cur = u;
                while let Some((p, l)) = parent[cur].clone() {
                    path.push(l);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if !seen[*v] {
                seen[*v] = true;
                parent[*v] = Some((u, label.clone()));
                queue.push_back(*v);
            }
        }
    }
    None
}

/// Compares one expression's LTS with the literal construction; returns
/// the number of witness paths compared.
fn assert_agree(h: &Hist, subject: &str) -> usize {
    let lts = HistLts::build(h).unwrap_or_else(|e| panic!("{subject}: {e}"));
    let (states, edges) = literal_build(h, lts.len()).expect("the literal loop fits the bound");
    assert_eq!(lts.len(), states.len(), "{subject}: state count");
    for (id, (state, out)) in states.iter().zip(&edges).enumerate() {
        assert_eq!(lts.state(id), state, "{subject}: state {id}");
        assert_eq!(lts.edges(id), out.as_slice(), "{subject}: edges of {id}");
    }
    // One state fewer than reachable exceeds the bound on both sides.
    if lts.len() > 1 {
        assert_eq!(
            HistLts::build_bounded(h, lts.len() - 1)
                .map(|l| l.len())
                .ok(),
            literal_build(h, lts.len() - 1).map(|(s, _)| s.len()),
            "{subject}: bound"
        );
    }
    let mut labels: Vec<&Label> = lts.iter_edges().map(|(_, l, _)| l).collect();
    labels.sort();
    labels.dedup();
    for label in &labels {
        assert_eq!(
            lts.shortest_path_to_edge(|_, l, _| l == *label),
            literal_path(&edges, label),
            "{subject}: path to {label}"
        );
    }
    // A label no edge carries has no path.
    assert_eq!(lts.shortest_path_to_edge(|_, _, _| false), None);
    labels.len()
}

/// Checks every client and service of a scenario; returns the number of
/// expressions and witness paths compared.
fn check_scenario(sc: &Scenario, label: &str) -> (usize, usize) {
    let mut hists = 0;
    let mut paths = 0;
    let components = sc.clients.iter().map(|(name, h)| (name.as_str(), h));
    let services = sc.repository.iter().map(|(loc, h)| (loc.as_str(), h));
    for (name, h) in components.chain(services) {
        paths += assert_agree(h, &format!("{label}: {name}"));
        hists += 1;
    }
    (hists, paths)
}

#[test]
fn hist_lts_matches_the_literal_loop_on_the_corpus() {
    let dir = format!("{}/scenarios/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sufs"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 520, "the committed corpus has 520 scenarios");
    let (mut hists, mut paths) = (0, 0);
    for path in &files {
        let sc = parse_scenario(&std::fs::read_to_string(path).unwrap()).unwrap();
        let (h, p) = check_scenario(&sc, &path.display().to_string());
        hists += h;
        paths += p;
    }
    assert!(
        hists > 520 && paths > hists,
        "{hists} expressions, {paths} paths"
    );
}

#[test]
fn hist_lts_matches_the_literal_loop_on_shipped_scenarios() {
    for name in [
        "hotel.sufs",
        "faulty.sufs",
        "payment.sufs",
        "storage.sufs",
        "metered.sufs",
        "lint_demo.sufs",
        "lint_cluster.sufs",
    ] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let sc = parse_scenario(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (hists, paths) = check_scenario(&sc, name);
        assert!(hists > 0 && paths > 0, "{name}");
    }
}

/// The literal joint-deadlock search: a breadth-first walk of the joint
/// states of every component under the shared load, stopping at the
/// first state where nobody can move and somebody has not terminated.
fn literal_joint_deadlock(
    clients: &[ClientSpec],
    repo: &Repository,
    bound: usize,
) -> Result<Option<JointDeadlock>, VerifyError> {
    let initial: Vec<SymState> = clients
        .iter()
        .map(|s| SymState::initial(s.name.clone(), s.client.clone()))
        .collect();
    let mut states: Vec<Vec<SymState>> = vec![initial.clone()];
    let mut index: HashMap<Vec<SymState>, usize> = HashMap::from([(initial, 0)]);
    let mut parents: Vec<Option<(usize, usize, Label)>> = vec![None];
    let mut queue = VecDeque::from([0usize]);
    while let Some(id) = queue.pop_front() {
        let joint = states[id].clone();
        let mut load: BTreeMap<Location, usize> = BTreeMap::new();
        for comp in &joint {
            for (loc, n) in active_services(&comp.sess, repo) {
                *load.entry(loc).or_insert(0) += n;
            }
        }
        let mut any = false;
        for (i, comp) in joint.iter().enumerate() {
            for (label, next) in symbolic_successors_with_load(comp, &clients[i].plan, repo, &load)
            {
                any = true;
                let mut njoint = joint.clone();
                njoint[i] = next;
                if !index.contains_key(&njoint) {
                    let nid = states.len();
                    if nid >= bound {
                        return Err(VerifyError::BoundExceeded(bound));
                    }
                    index.insert(njoint.clone(), nid);
                    states.push(njoint);
                    parents.push(Some((id, i, label)));
                    queue.push_back(nid);
                }
            }
        }
        if !any && !joint.iter().all(SymState::is_terminated) {
            let mut path = Vec::new();
            let mut cur = id;
            while let Some((p, c, l)) = &parents[cur] {
                path.push((*c, l.clone()));
                cur = *p;
            }
            path.reverse();
            let stuck_components = joint
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_terminated())
                .map(|(i, _)| i)
                .collect();
            return Ok(Some(JointDeadlock {
                path,
                stuck_components,
            }));
        }
    }
    Ok(None)
}

/// The literal two-phase cost check: a breadth-first build of the
/// `(state, depth)` graph with edge costs and a search for a
/// positive-cost cycle (a positive edge whose target reaches its
/// source), then a breadth-first walk of exact `(state, depth, cost)`
/// configurations that calls `succ` again, resets the cost when the
/// last window closes and does not chase costs above the bound.
fn literal_cost_check<K: Clone + Eq + Hash>(
    initial: K,
    mut succ: impl FnMut(&K) -> Vec<(Label, K)>,
    cb: &CostBound,
    state_bound: usize,
) -> Result<CostVerdict, usize> {
    let mut nodes: Vec<(K, usize)> = vec![(initial.clone(), 0)];
    let mut index: HashMap<(K, usize), usize> = HashMap::from([(nodes[0].clone(), 0)]);
    let mut edges: Vec<Vec<(u64, usize)>> = Vec::new();
    while edges.len() < nodes.len() {
        let (state, depth) = nodes[edges.len()].clone();
        let mut out = Vec::new();
        for (label, next) in succ(&state) {
            let (ndepth, cost) = match &label {
                Label::Ev(e) if depth > 0 => (depth, cb.model.cost(e)),
                Label::FrameOpen(p) | Label::Open(_, Some(p)) if p == &cb.policy => (depth + 1, 0),
                Label::FrameClose(p) | Label::Close(_, Some(p)) if p == &cb.policy => {
                    (depth.saturating_sub(1), 0)
                }
                _ => (depth, 0),
            };
            let key = (next, ndepth);
            let id = match index.get(&key) {
                Some(&id) => id,
                None => {
                    let id = nodes.len();
                    if id >= state_bound {
                        return Err(state_bound);
                    }
                    index.insert(key.clone(), id);
                    nodes.push(key);
                    id
                }
            };
            out.push((cost, id));
        }
        edges.push(out);
    }
    let reaches = |from: usize, to: usize| {
        let mut seen = vec![false; edges.len()];
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(edges[u].iter().map(|&(_, v)| v));
            }
        }
        false
    };
    let cycle = edges
        .iter()
        .enumerate()
        .any(|(u, out)| out.iter().any(|&(cost, v)| cost > 0 && reaches(v, u)));
    if cycle {
        return Ok(CostVerdict::Exceeded { witness: None });
    }

    let init = (initial, 0usize, 0u64);
    let mut seen: HashMap<(K, usize, u64), ()> = HashMap::from([(init.clone(), ())]);
    let mut queue = VecDeque::from([init]);
    let mut worst = 0u64;
    let mut witness: Option<u64> = None;
    while let Some((state, depth, cost)) = queue.pop_front() {
        for (label, next) in succ(&state) {
            let (ndepth, ncost) = match &label {
                Label::Ev(e) if depth > 0 => (depth, cost + cb.model.cost(e)),
                Label::FrameOpen(p) | Label::Open(_, Some(p)) if p == &cb.policy => {
                    (depth + 1, cost)
                }
                Label::FrameClose(p) | Label::Close(_, Some(p)) if p == &cb.policy => {
                    let d = depth.saturating_sub(1);
                    (d, if d == 0 { 0 } else { cost })
                }
                _ => (depth, cost),
            };
            if ncost > cb.bound {
                witness = Some(witness.map_or(ncost, |w| w.min(ncost)));
                continue;
            }
            worst = worst.max(ncost);
            let key = (next, ndepth, ncost);
            if !seen.contains_key(&key) {
                if seen.len() >= state_bound {
                    return Err(state_bound);
                }
                seen.insert(key.clone(), ());
                queue.push_back(key);
            }
        }
    }
    Ok(match witness {
        Some(w) => CostVerdict::Exceeded { witness: Some(w) },
        None => CostVerdict::Within { worst },
    })
}

/// The state bounds the searches are compared at.
const SEARCH_BOUNDS: [usize; 7] = [1, 2, 3, 5, 8, 20, 200];

/// How many outcomes of each kind a sweep compared, so a sweep that
/// never exercises one fails instead of passing vacuously.
#[derive(Debug, Default)]
struct SearchTally {
    deadlocks: usize,
    deadlock_free: usize,
    joint_bounded: usize,
    within: usize,
    exceeded: usize,
    cost_bounded: usize,
}

/// A cost model charging every event of `events`: a flat cost per name
/// of 1 to 3, or the first integer argument for names ending in a digit.
fn model_of<'a>(events: impl IntoIterator<Item = &'a Event>) -> CostModel {
    let mut model = CostModel::new();
    for e in events {
        let name = e.name().as_str();
        model = if name.ends_with(|c: char| c.is_ascii_digit()) {
            model.by_arg(name, 0)
        } else {
            model.flat(name, 1 + name.len() as u64 % 3)
        };
    }
    model
}

/// Compares the joint search and the cost check with their literal
/// transcriptions on one scenario.
fn check_searches(sc: &Scenario, label: &str, tally: &mut SearchTally) {
    // The network lint's SUFS009 analyses: every client running its
    // first valid plan in enumeration order; none if some client cannot
    // be verified.
    let mut specs = Vec::new();
    for (name, client) in &sc.clients {
        let Ok(plans) = enumerate_plans(client, &sc.repository, DEFAULT_PLAN_CAP) else {
            specs.clear();
            break;
        };
        let mut verdicts = plans
            .iter()
            .map(|plan| verify_plan(client, plan, &sc.repository, &sc.registry));
        match verdicts.find(|v| v.as_ref().map_or(true, PlanVerdict::is_valid)) {
            Some(Ok(v)) => specs.push(ClientSpec::new(name.as_str(), client.clone(), v.plan)),
            Some(Err(_)) => {
                specs.clear();
                break;
            }
            None => {}
        }
    }
    if !specs.is_empty() {
        for bound in SEARCH_BOUNDS {
            let explored = find_joint_deadlock(&specs, &sc.repository, bound);
            let literal = literal_joint_deadlock(&specs, &sc.repository, bound);
            assert_eq!(explored, literal, "{label}: joint search, bound {bound}");
            match explored {
                Ok(Some(_)) => tally.deadlocks += 1,
                Ok(None) => tally.deadlock_free += 1,
                Err(_) => tally.joint_bounded += 1,
            }
        }
    }

    let mut policies: Vec<PolicyRef> = Vec::new();
    let hists = sc.clients.iter().map(|(_, h)| h);
    for h in hists.clone().chain(sc.repository.iter().map(|(_, h)| h)) {
        for p in h.policy_refs() {
            if !policies.contains(&p) {
                policies.push(p);
            }
        }
    }
    let events: BTreeSet<Event> = hists
        .clone()
        .chain(sc.repository.iter().map(|(_, h)| h))
        .flat_map(Hist::events)
        .collect();
    let model = model_of(&events);
    let mut bounds: Vec<CostBound> = sc.budgets.clone();
    for policy in policies {
        for bound in [0, 2, 5] {
            bounds.push(CostBound {
                policy: policy.clone(),
                model: model.clone(),
                bound,
            });
        }
    }
    let mut compare = |verdicts: (Result<CostVerdict, usize>, Result<CostVerdict, usize>),
                       subject: &str| {
        assert_eq!(verdicts.0, verdicts.1, "{label}: {subject}");
        match verdicts.0 {
            Ok(CostVerdict::Within { .. }) => tally.within += 1,
            Ok(CostVerdict::Exceeded { .. }) => tally.exceeded += 1,
            Err(_) => tally.cost_bounded += 1,
        }
    };
    for cb in &bounds {
        for state_bound in [1, 3, 8, 1 << 16] {
            for spec in &specs {
                let initial = SymState::initial("client", spec.client.clone());
                let succ = |s: &SymState| symbolic_successors(s, &spec.plan, &sc.repository);
                compare(
                    (
                        check_cost_bound_lts(initial.clone(), succ, cb, state_bound),
                        literal_cost_check(initial, succ, cb, state_bound),
                    ),
                    &format!(
                        "{} under {} for {}, bound {state_bound}",
                        spec.name, spec.plan, cb.policy
                    ),
                );
            }
            for h in hists.clone().chain(sc.repository.iter().map(|(_, h)| h)) {
                compare(
                    (
                        check_cost_bound_lts(h.clone(), successors, cb, state_bound),
                        literal_cost_check(h.clone(), successors, cb, state_bound),
                    ),
                    &format!("{h} for {}, bound {state_bound}", cb.policy),
                );
            }
        }
    }
}

#[test]
fn searches_match_their_literal_loops_on_the_corpus() {
    let dir = format!("{}/scenarios/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sufs"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 520, "the committed corpus has 520 scenarios");
    let mut tally = SearchTally::default();
    for path in &files {
        let sc = parse_scenario(&std::fs::read_to_string(path).unwrap()).unwrap();
        check_searches(&sc, &path.display().to_string(), &mut tally);
    }
    // The corpus reaches no deadlock and no exceeded budget. `gen`
    // keeps variant 0 of every provider group silent and uncapped, and
    // its clients emit no events of their own, so the networks SUFS009
    // builds (each client on its first valid plan, the all-variant-0
    // one) never block on a capacity and every framed window costs 0;
    // the later variants' events sit outside any frame in their own
    // text. The shipped-scenario sweep below pins both outcomes.
    let t = &tally;
    assert!(
        t.deadlock_free > 0 && t.joint_bounded > 0 && t.within > 0 && t.cost_bounded > 0,
        "{tally:?}"
    );
}

#[test]
fn searches_match_their_literal_loops_on_shipped_and_generated_scenarios() {
    let mut tally = SearchTally::default();
    for name in [
        "hotel.sufs",
        "faulty.sufs",
        "payment.sufs",
        "storage.sufs",
        "metered.sufs",
        "lint_demo.sufs",
        "lint_cluster.sufs",
    ] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let sc = parse_scenario(&std::fs::read_to_string(&path).unwrap()).unwrap();
        check_searches(&sc, name, &mut tally);
    }
    for profile in PROFILES {
        for seed in 9_000..9_004u64 {
            let cfg = GenConfig {
                seed,
                services: 4 + (seed as usize % 4),
                profile,
                faults: false,
                policies: PolicyMix {
                    deny: true,
                    frame: true,
                    cap: true,
                },
            };
            let sc = parse_scenario(&generate(&cfg).scenario).unwrap();
            check_searches(&sc, &cfg.command_line(), &mut tally);
        }
    }
    let t = &tally;
    assert!(
        t.deadlocks > 0 && t.deadlock_free > 0 && t.joint_bounded > 0,
        "{tally:?}"
    );
    assert!(
        t.within > 0 && t.exceeded > 0 && t.cost_bounded > 0,
        "{tally:?}"
    );
}

#[test]
fn joint_search_leaves_a_finished_client_out_of_the_stuck_set() {
    // The lint_cluster lock cycle beside a client that finishes on its
    // own: a deadlocked joint state has no successors at all, so `carol`
    // has terminated in every one and must not be reported stuck.
    let sc = parse_scenario(
        "client alice { open 1 { int[acq_a -> eps]; open 2 { int[acq_b -> eps] } } }
         client bob { open 3 { int[acq_b -> eps]; open 4 { int[acq_a -> eps] } } }
         client carol { #hello }
         service lock_a cap 1 { ext[acq_a -> eps] }
         service lock_b cap 1 { ext[acq_b -> eps] }",
    )
    .unwrap();
    let mut tally = SearchTally::default();
    check_searches(&sc, "crossed locks and a finished client", &mut tally);
    assert!(tally.deadlocks > 0, "{tally:?}");
}

#[test]
fn cost_check_matches_the_literal_loop_on_cycles_and_nested_windows() {
    let model = CostModel::new().flat("spend", 10).by_arg("charge", 0);
    let mut unbounded = 0;
    for src in [
        "frame budget [ mu h. int[go -> #spend; h | stop -> eps] ]",
        "frame budget [ mu h. int[go -> #free; h | stop -> eps] ]",
        "frame budget [ #spend; frame budget [ #charge(5) ]; #spend ]",
        "mu h. int[go -> frame budget [ #spend ]; h | stop -> eps]",
        "#spend; frame budget [ ext[a -> #charge(7) | b -> #spend; #spend] ]; #spend",
        "open 1 phi budget { int[q -> #spend] }; #spend",
        "frame budget [ #spend ]; frame budget [ #charge(7) ]",
    ] {
        let h = parse_hist(src).unwrap();
        for bound in [0, 10, 25] {
            let cb = CostBound {
                policy: PolicyRef::nullary("budget"),
                model: model.clone(),
                bound,
            };
            // Every small state bound: a search that stores one state
            // more or fewer than the literal loop errors at a different
            // bound even where the verdicts agree.
            for state_bound in (1..=24).chain([1 << 16]) {
                let explored = check_cost_bound_lts(h.clone(), successors, &cb, state_bound);
                let literal = literal_cost_check(h.clone(), successors, &cb, state_bound);
                assert_eq!(
                    explored, literal,
                    "{src}, bound {bound}, {state_bound} states"
                );
                unbounded += usize::from(explored == Ok(CostVerdict::Exceeded { witness: None }));
            }
        }
    }
    assert!(unbounded > 0);
}
