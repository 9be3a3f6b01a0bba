//! Differential suite for the LTS of a history expression.
//!
//! `HistLts` is built by the workspace's one bounded explorer
//! (`Lts::explore`) and answers "shortest path to the first edge
//! satisfying X" from the parents that explorer records. This suite
//! checks both against literal transcriptions kept here: the
//! breadth-first loop `HistLts::build_bounded` used to run over a
//! `HashMap<Hist, usize>`, and a breadth-first search from the initial
//! state that stops at the first matching edge. States, ordered edges,
//! the bound and every witness path must be equal.
//!
//! Inputs: every client and service of the committed corpus and of the
//! shipped scenarios.

use std::collections::{HashMap, VecDeque};

use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_hexpr::semantics::successors;
use sufs_hexpr::{Hist, HistLts, Label};

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
