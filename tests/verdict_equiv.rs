//! Differential suite for the fused plan verdict.
//!
//! `verify_plan` explores a plan's symbolic state space once and reads
//! both the security verdict (§3.1) and the progress verdict (§5) off
//! that one graph. This suite checks it against the literal
//! transcription of the three checks: pairwise compliance per composed
//! request, then `check_validity` over `SymState`s driven by
//! `symbolic_successors`, then `find_stuck`, with a stuck state dropped
//! when a binding failure already explains it. Verdicts must be equal,
//! witness paths and violation order included, and so must errors.
//!
//! Inputs: every client of the committed corpus, clients of fresh
//! generator seeds over every profile and policy mix (framings, nested
//! requests, capacity-bounded services), the shipped scenarios, the
//! ambiguous nested-body repro and the error cases.

use sufs_contract::{compliant, Contract};
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::verify::{PlanVerdict, VerifyError, Violation, DEFAULT_STATE_BOUND};
use sufs_core::{composed_requests, enumerate_plans, verify_plan};
use sufs_corpus::{generate, GenConfig, PolicyMix, PROFILES};
use sufs_hexpr::builder::*;
use sufs_hexpr::{wf, Hist, PolicyRef};
use sufs_net::symbolic::{find_stuck, symbolic_successors, SymState};
use sufs_net::{Plan, Repository};
use sufs_policy::validity::{check_validity, Verdict};
use sufs_policy::PolicyRegistry;

/// Candidate plans checked per client: the full plan space when it is
/// this small, else this many plans spread evenly across it.
const PLANS_PER_CLIENT: usize = 12;

/// The enumeration cap; wider plan spaces fall back to binding every
/// request to each location in turn.
const ENUMERATION_CAP: usize = 4096;

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
    let security = check_validity(
        SymState::initial("client", client.clone()),
        |s| symbolic_successors(s, plan, repo),
        registry,
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
}

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
        tally.valid > 0 && tally.security > 0 && tally.stuck > 0,
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
        tally.valid > 0 && tally.security > 0 && tally.stuck > 0,
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
