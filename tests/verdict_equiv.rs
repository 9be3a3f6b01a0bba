//! Differential suite for the fused plan verdict.
//!
//! `verify_plan` explores a plan's symbolic state space once and reads
//! both the security verdict (§3.1) and the progress verdict (§5) off
//! that one graph. This suite checks it against the literal
//! transcription of the three checks: pairwise compliance per composed
//! request, then the literal two-phase validity walk kept here
//! ([`literal_validity`]) over `SymState`s driven by
//! `symbolic_successors`, then `find_stuck`, with a stuck state dropped
//! when a binding failure already explains it. Verdicts must be equal,
//! witness paths and violation order included, and so must errors.
//! `check_validity`, which runs on the workspace's one explorer, is
//! also checked against the literal walk at small state bounds, where
//! `BoundExceeded` and a violation found before the bound compete, and
//! so is its product search `check_explored` at every product bound
//! until it completes.
//!
//! Inputs: every client of the committed corpus, clients of fresh
//! generator seeds over every profile and policy mix (framings, nested
//! requests, capacity-bounded services), the shipped scenarios, the
//! ambiguous nested-body repro and the error cases.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::Hash;

use sufs_contract::{compliant, Contract};
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::verify::{PlanVerdict, VerifyError, Violation, DEFAULT_STATE_BOUND};
use sufs_core::{composed_requests, enumerate_plans, verify_plan};
use sufs_corpus::{generate, GenConfig, PolicyMix, PROFILES};
use sufs_hexpr::builder::*;
use sufs_hexpr::{wf, Hist, Label, Lts, PolicyRef};
use sufs_net::symbolic::{find_stuck, symbolic_successors, SymState};
use sufs_net::{Plan, Repository};
use sufs_policy::validity::{
    check_explored, check_validity, GraphLabels, SecurityViolation, ValidityError, Verdict,
};
use sufs_policy::{PolicyInstance, PolicyRegistry};

/// Candidate plans checked per client: the full plan space when it is
/// this small, else this many plans spread evenly across it.
const PLANS_PER_CLIENT: usize = 12;

/// The enumeration cap; wider plan spaces fall back to binding every
/// request to each location in turn.
const ENUMERATION_CAP: usize = 4096;

/// The policy a framing or session label activates or closes.
fn policy_of(label: &Label) -> Option<&PolicyRef> {
    match label {
        Label::FrameOpen(p) | Label::FrameClose(p) => Some(p),
        Label::Open(_, Some(p)) | Label::Close(_, Some(p)) => Some(p),
        _ => None,
    }
}

/// The literal §3.1 validity check, in two breadth-first walks. The
/// first collects the policies the system's labels mention, in order
/// of first occurrence. The second walks the product of the system
/// with one track per policy instance (its automaton state set, fed
/// every event, and its activation depth), stopping at the first edge
/// into a state where an active instance offends; that state is never
/// stored. The first walk counts states against `bound`, the second
/// against `product_bound`.
fn literal_validity<K: Clone + Eq + Hash>(
    initial: K,
    mut succ: impl FnMut(&K) -> Vec<(Label, K)>,
    registry: &PolicyRegistry,
    bound: usize,
    product_bound: usize,
) -> Result<Verdict, ValidityError> {
    let mut refs: Vec<PolicyRef> = Vec::new();
    let mut seen: HashMap<K, ()> = HashMap::from([(initial.clone(), ())]);
    let mut queue = VecDeque::from([initial.clone()]);
    while let Some(k) = queue.pop_front() {
        for (label, k2) in succ(&k) {
            if let Some(p) = policy_of(&label) {
                if !refs.contains(p) {
                    refs.push(p.clone());
                }
            }
            if !seen.contains_key(&k2) {
                if seen.len() >= bound {
                    return Err(ValidityError::BoundExceeded(bound));
                }
                seen.insert(k2.clone(), ());
                queue.push_back(k2);
            }
        }
    }
    let instances: Vec<PolicyInstance> = refs
        .iter()
        .map(|r| registry.instantiate(r))
        .collect::<Result<_, _>>()?;

    type Tracks = Vec<(BTreeSet<usize>, usize)>;
    let tracks0: Tracks = instances.iter().map(|i| (i.initial(), 0)).collect();
    let start = (initial, tracks0);
    let mut index: HashMap<(K, Tracks), usize> = HashMap::from([(start.clone(), 0)]);
    let mut parents: Vec<Option<(usize, Label)>> = vec![None];
    let mut states: Vec<(K, Tracks)> = vec![start];
    let mut queue = VecDeque::from([0usize]);
    while let Some(id) = queue.pop_front() {
        let (k, tracks) = states[id].clone();
        for (label, k2) in succ(&k) {
            let mut t2 = tracks.clone();
            match &label {
                Label::Ev(e) => {
                    for (i, (set, _)) in t2.iter_mut().enumerate() {
                        *set = instances[i].step(set, e);
                    }
                }
                Label::FrameOpen(p) | Label::Open(_, Some(p)) => {
                    if let Some(i) = instances.iter().position(|inst| inst.reference() == p) {
                        t2[i].1 += 1;
                    }
                }
                Label::FrameClose(p) | Label::Close(_, Some(p)) => {
                    if let Some(i) = instances.iter().position(|inst| inst.reference() == p) {
                        t2[i].1 = t2[i].1.saturating_sub(1);
                    }
                }
                _ => {}
            }
            if let Some(pos) = t2
                .iter()
                .enumerate()
                .position(|(i, (set, depth))| *depth > 0 && instances[i].offends(set))
            {
                let mut witness = vec![label];
                let mut cur = id;
                while let Some((p, l)) = &parents[cur] {
                    witness.push(l.clone());
                    cur = *p;
                }
                witness.reverse();
                return Ok(Verdict::Violation(SecurityViolation {
                    policy: instances[pos].reference().clone(),
                    witness,
                }));
            }
            let key = (k2, t2);
            if !index.contains_key(&key) {
                let nid = states.len();
                if nid >= product_bound {
                    return Err(ValidityError::BoundExceeded(product_bound));
                }
                index.insert(key.clone(), nid);
                states.push(key);
                parents.push(Some((id, label)));
                queue.push_back(nid);
            }
        }
    }
    Ok(Verdict::Valid)
}

/// The §5 verdict as three separate checks, each walking the state
/// space on its own.
fn literal_verdict(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<PlanVerdict, VerifyError> {
    wf::check(client).map_err(VerifyError::IllFormedClient)?;
    let mut violations = Vec::new();
    for (info, bound) in composed_requests(client, plan, repo) {
        let Some(location) = bound else {
            violations.push(Violation::UnboundRequest { request: info.id });
            continue;
        };
        let Some(service) = repo.get(&location) else {
            violations.push(Violation::UnknownLocation {
                request: info.id,
                location,
            });
            continue;
        };
        let client_side = Contract::from_service(&info.body)?;
        let server_side = Contract::from_service(service)?;
        if let Some(witness) = compliant(&client_side, &server_side).witness() {
            violations.push(Violation::NonCompliant {
                request: info.id,
                service: location,
                witness: witness.clone(),
            });
        }
    }
    let security = literal_validity(
        SymState::initial("client", client.clone()),
        |s| symbolic_successors(s, plan, repo),
        registry,
        DEFAULT_STATE_BOUND,
        DEFAULT_STATE_BOUND,
    )?;
    if let Verdict::Violation(v) = security {
        violations.push(Violation::Security(v));
    }
    match find_stuck("client", client.clone(), plan, repo, DEFAULT_STATE_BOUND) {
        Ok(Some(stuck)) => {
            let explained = violations.iter().any(|v| {
                matches!(
                    v,
                    Violation::UnboundRequest { .. } | Violation::UnknownLocation { .. }
                )
            });
            if !explained {
                violations.push(Violation::Stuck(stuck));
            }
        }
        Ok(None) => {}
        Err(bound) => return Err(VerifyError::BoundExceeded(bound)),
    }
    Ok(PlanVerdict {
        plan: plan.clone(),
        violations,
    })
}

/// How many verdicts of each kind a sweep compared, so a sweep that
/// never exercises a check fails instead of passing vacuously.
#[derive(Debug, Default)]
struct Tally {
    plans: usize,
    valid: usize,
    security: usize,
    stuck: usize,
    errors: usize,
    /// Small-bound security checks that exceeded their bound.
    bounded: usize,
}

/// The state bounds `check_validity` and the literal walk are compared
/// at, besides the verdict's own.
const SMALL_BOUNDS: [usize; 8] = [1, 2, 3, 4, 6, 9, 14, 40];

impl Tally {
    fn add(&mut self, outcome: &Result<PlanVerdict, VerifyError>) {
        self.plans += 1;
        match outcome {
            Ok(v) if v.is_valid() => self.valid += 1,
            Ok(v) => {
                for violation in &v.violations {
                    match violation {
                        Violation::Security(_) => self.security += 1,
                        Violation::Stuck(_) => self.stuck += 1,
                        _ => {}
                    }
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Asserts the fused and the literal verdict agree on one plan.
fn assert_agree(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
    registry: &PolicyRegistry,
    label: &str,
    tally: &mut Tally,
) {
    let fused = verify_plan(client, plan, repo, registry);
    let literal = literal_verdict(client, plan, repo, registry);
    assert_eq!(fused, literal, "{label}: plan {plan}");
    tally.add(&fused);
    if wf::check(client).is_err() {
        return;
    }
    let initial = SymState::initial("client", client.clone());
    let succ = |s: &SymState| symbolic_successors(s, plan, repo);
    for bound in SMALL_BOUNDS {
        let explored = check_validity(initial.clone(), succ, registry, bound);
        let literal = literal_validity(initial.clone(), succ, registry, bound, bound);
        assert_eq!(explored, literal, "{label}: plan {plan}, bound {bound}");
        if matches!(explored, Err(ValidityError::BoundExceeded(_))) {
            tally.bounded += 1;
        }
    }
    // On a violation, the product search alone, over the whole graph, at
    // every product bound until it completes: a bad product state stored
    // before the search stops would show as `BoundExceeded` one bound
    // too early. Through `check_validity` that extra state hides behind
    // the graph's own bound whenever the violation is met before the
    // product is as large as the graph.
    let Ok(graph) = Lts::explore(initial.clone(), DEFAULT_STATE_BOUND, succ) else {
        return;
    };
    let policies = GraphLabels::of(&graph).policies;
    let verdict = check_explored(&graph, &policies, registry, DEFAULT_STATE_BOUND);
    if !matches!(verdict, Ok(Verdict::Violation(_))) {
        return;
    }
    for bound in 1.. {
        let explored = check_explored(&graph, &policies, registry, bound);
        let literal = literal_validity(initial.clone(), succ, registry, DEFAULT_STATE_BOUND, bound);
        assert_eq!(
            explored, literal,
            "{label}: plan {plan}, product bound {bound}"
        );
        if !matches!(explored, Err(ValidityError::BoundExceeded(_))) {
            break;
        }
    }
}

/// Up to [`PLANS_PER_CLIENT`] candidate plans for `client`, plus the
/// empty plan (every request unbound).
fn candidates(client: &Hist, repo: &Repository) -> Vec<Plan> {
    let mut plans: Vec<Plan> = match enumerate_plans(client, repo, ENUMERATION_CAP) {
        Ok(space) => {
            let stride = space.len().div_ceil(PLANS_PER_CLIENT).max(1);
            space.into_iter().step_by(stride).collect()
        }
        // Too wide to enumerate: bind every request of the client to
        // one location, for each location in turn.
        Err(_) => repo
            .iter()
            .take(PLANS_PER_CLIENT)
            .map(|(loc, _)| {
                let mut plan = Plan::new();
                for (info, _) in composed_requests(client, &Plan::new(), repo) {
                    plan.bind(info.id, loc.clone());
                }
                plan
            })
            .collect(),
    };
    plans.push(Plan::new());
    plans
}

fn check_scenario(sc: &Scenario, label: &str, tally: &mut Tally) {
    for (name, client) in &sc.clients {
        for plan in candidates(client, &sc.repository) {
            assert_agree(
                client,
                &plan,
                &sc.repository,
                &sc.registry,
                &format!("{label}:{name}"),
                tally,
            );
        }
    }
}

#[test]
fn fused_verdicts_match_the_literal_walks_on_the_corpus() {
    let dir = format!("{}/scenarios/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sufs"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 520, "the committed corpus has 520 scenarios");
    let mut tally = Tally::default();
    for path in &files {
        let sc = parse_scenario(&std::fs::read_to_string(path).unwrap()).unwrap();
        check_scenario(&sc, &path.display().to_string(), &mut tally);
    }
    assert!(
        tally.valid > 0 && tally.security > 0 && tally.stuck > 0 && tally.bounded > 0,
        "{tally:?}"
    );
}

#[test]
fn fused_verdicts_match_the_literal_walks_on_generated_scenarios() {
    let mut tally = Tally::default();
    for profile in PROFILES {
        for seed in 9_000..9_006u64 {
            let cfg = GenConfig {
                seed,
                services: 4 + (seed as usize % 4),
                profile,
                faults: false,
                policies: PolicyMix {
                    deny: true,
                    frame: seed % 2 == 0,
                    cap: true,
                },
            };
            let sc = parse_scenario(&generate(&cfg).scenario).unwrap();
            check_scenario(&sc, &cfg.command_line(), &mut tally);
        }
    }
    assert!(
        tally.valid > 0 && tally.security > 0 && tally.stuck > 0 && tally.bounded > 0,
        "{tally:?}"
    );
}

#[test]
fn fused_verdicts_match_the_literal_walks_on_shipped_scenarios() {
    let mut tally = Tally::default();
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
        check_scenario(&sc, name, &mut tally);
    }
    assert!(tally.valid > 0 && tally.security > 0, "{tally:?}");
}

/// Two brokers expose the same nested request id `r3` with different
/// bodies, so only one of them complies with the leaf's replies.
#[test]
fn fused_verdicts_match_on_ambiguous_nested_bodies() {
    let client = request(1, None, send("q", eps()));
    let mut repo = Repository::new();
    repo.publish(
        "a_br",
        recv("q", request(3, None, offer([("a", eps()), ("b", eps())]))),
    );
    repo.publish("b_br", recv("q", request(3, None, offer([("a", eps())]))));
    repo.publish("leaf", choose([("a", eps()), ("b", eps())]));
    let registry = PolicyRegistry::new();
    let mut tally = Tally::default();
    let plans = enumerate_plans(&client, &repo, 100).unwrap();
    for plan in plans.iter().chain([&Plan::new()]) {
        assert_agree(&client, plan, &repo, &registry, "ambiguous", &mut tally);
    }
    assert_eq!(tally.valid, 1, "{tally:?}");
}

/// A plan naming a missing service, a capacity-bounded service opened
/// twice at once, and an unknown policy: the suppression rule, a
/// capacity stall and an error all agree.
#[test]
fn fused_verdicts_match_on_binding_failures_capacities_and_errors() {
    let mut tally = Tally::default();
    let registry = PolicyRegistry::new();

    let client = request(1, None, seq([send("q", eps()), offer([("a", eps())])]));
    let mut repo = Repository::new();
    repo.publish("srv", recv("q", choose([("a", eps())])));
    for plan in [
        Plan::new(),
        Plan::new().with(1u32, "ghost"),
        Plan::new().with(1u32, "srv"),
    ] {
        assert_agree(&client, &plan, &repo, &registry, "binding", &mut tally);
    }

    // The broker holds its one slot while its nested request asks for
    // a second session with itself: a capacity stall.
    let mut bounded = Repository::new();
    bounded.publish_bounded(
        "br",
        recv(
            "q",
            seq([
                request(2, None, seq([send("q", eps()), offer([("a", eps())])])),
                choose([("a", eps())]),
            ]),
        ),
        1,
    );
    let plan = Plan::new().with(1u32, "br").with(2u32, "br");
    assert_agree(&client, &plan, &bounded, &registry, "capacity", &mut tally);

    let ghost = Hist::framed(PolicyRef::nullary("ghost"), ev0("a"));
    assert_agree(&ghost, &Plan::new(), &repo, &registry, "policy", &mut tally);
    assert_eq!(tally.errors, 1, "{tally:?}");
    assert!(tally.stuck >= 1, "{tally:?}");
}
