//! The incremental lint engine's contract: after any sequence of
//! repository mutations, the incrementally refreshed report is
//! byte-identical to a cold full re-lint of the same state.
//!
//! Two seeded property suites enforce it — one against the engine
//! in-process, one against a live broker over the wire (`lint`
//! command) — plus end-to-end coverage of the `--deny-lint` mutation
//! gate: a retraction that empties a client's plan space must bounce
//! with a structured `lint_rejected` reply carrying `SUFS007`, leaving
//! the repository untouched.

use sufs_broker::{Broker, BrokerClient, BrokerConfig, BrokerHandle, Json};
use sufs_core::plans::DEFAULT_PLAN_CAP;
use sufs_core::scenario::parse_scenario;
use sufs_core::verify::DEFAULT_STATE_BOUND;
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_lint::{LintEngine, LintInput, Severity};
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;
use sufs_rng::{Rng, SeedableRng, StdRng};

/// The base cluster: two clients whose lock order can deadlock
/// (SUFS009 material), a third client served by `echo`, and a policy
/// nobody frames (SUFS002 material). Small on purpose — the suites
/// re-lint it hundreds of times.
const BASE: &str = "
    client alice { open 1 { int[acq_a -> eps]; open 2 { int[acq_b -> eps] } } }
    client bob { open 3 { int[acq_b -> eps]; open 4 { int[acq_a -> eps] } } }
    client carol { open 5 { int[ping -> eps] } }
    service lock_a cap 1 { ext[acq_a -> eps] }
    service lock_b cap 1 { ext[acq_b -> eps] }
    service echo { ext[ping -> eps] }
    policy ghost { start q0; offending bad; q0 -- phantom_op -> bad; }
";

/// Locations the mutation sequences publish to and retract from.
const LOCATIONS: [&str; 4] = ["lock_a", "lock_b", "echo", "spare"];

/// Service bodies the mutation sequences publish: the lock providers,
/// the echo provider, and one that serves nobody.
const POOL: [&str; 4] = [
    "ext[acq_a -> eps]",
    "ext[acq_b -> eps]",
    "ext[ping -> eps]",
    "ext[zzz -> eps]",
];

/// A cold full re-lint: fresh engine, no caches, no prior fingerprints.
fn cold_json(clients: &[(String, Hist)], repo: &Repository, registry: &PolicyRegistry) -> String {
    let mut engine = LintEngine::new();
    engine
        .refresh(LintInput::new(clients, repo, registry))
        .expect("cold lint succeeds");
    engine.report().to_json(None)
}

/// One random mutation applied to the mirror state. Returns a label
/// for failure messages.
fn mutate(
    rng: &mut StdRng,
    repo: &mut Repository,
    registry: &mut PolicyRegistry,
    clients: &mut Vec<(String, Hist)>,
    base_registry: &PolicyRegistry,
    base_clients: &[(String, Hist)],
) -> String {
    match rng.gen_range(0..8u32) {
        // Publish (4:8 odds): a random pool service at a random
        // location with a random capacity.
        0..=3 => {
            let loc = LOCATIONS[rng.gen_range(0..LOCATIONS.len())];
            let body = POOL[rng.gen_range(0..POOL.len())];
            let cap = [None, Some(1), Some(2)][rng.gen_range(0..3usize)];
            repo.restore(loc, parse_hist(body).unwrap(), cap)
                .expect("pool services are well-formed");
            format!("publish {loc} cap {cap:?} = {body}")
        }
        // Retract (2:8 odds).
        4 | 5 => {
            let loc = LOCATIONS[rng.gen_range(0..LOCATIONS.len())];
            repo.retract(&Location::new(loc));
            format!("retract {loc}")
        }
        // Toggle the `ghost` policy's registration.
        6 => {
            if registry.remove("ghost").is_some() {
                "retract policy ghost".into()
            } else {
                registry.register(base_registry.get("ghost").unwrap().clone());
                "publish policy ghost".into()
            }
        }
        // Toggle carol's membership in the client set.
        _ => {
            if let Some(i) = clients.iter().position(|(n, _)| n == "carol") {
                clients.remove(i);
                "remove client carol".into()
            } else {
                let carol = base_clients
                    .iter()
                    .find(|(n, _)| n == "carol")
                    .unwrap()
                    .clone();
                let at = clients
                    .binary_search_by(|(n, _)| n.as_str().cmp("carol"))
                    .unwrap_err();
                clients.insert(at, carol);
                "add client carol".into()
            }
        }
    }
}

/// ≥200 random mutations against one long-lived engine: after every
/// step the incremental report must be byte-identical to a cold full
/// re-lint, and across the run the engine must actually splice cached
/// pass results (otherwise it is just a slow full linter).
#[test]
fn incremental_engine_matches_cold_relint_over_random_mutations() {
    let sc = parse_scenario(BASE).expect("base scenario parses");
    let mut repo = sc.repository.clone();
    let mut registry = sc.registry.clone();
    let mut clients = sc.clients.clone();
    clients.sort_by(|(a, _), (b, _)| a.cmp(b));
    let base_clients = clients.clone();

    let mut engine = LintEngine::new();
    let mut rng = StdRng::seed_from_u64(0x11C0_0901);
    let mut reused_total = 0usize;
    for step in 0..220 {
        let label = mutate(
            &mut rng,
            &mut repo,
            &mut registry,
            &mut clients,
            &sc.registry,
            &base_clients,
        );
        let outcome = engine
            .refresh(LintInput::new(&clients, &repo, &registry))
            .expect("incremental refresh succeeds");
        reused_total += outcome.passes_reused;
        let incremental = engine.report().to_json(None);
        let cold = cold_json(&clients, &repo, &registry);
        assert_eq!(
            incremental, cold,
            "step {step} ({label}): incremental and cold reports diverged"
        );
    }
    assert!(
        reused_total > 0,
        "220 mutations never reused a cached pass: the dependency index is dead"
    );
}

fn spawn(config: BrokerConfig) -> (BrokerHandle, BrokerClient) {
    let handle = Broker::spawn(config).expect("broker spawns");
    let client = BrokerClient::connect(handle.addr()).expect("client connects");
    (handle, client)
}

/// The `diagnostics` array of a broker `lint` reply, re-rendered — the
/// broker uses the same per-diagnostic serializer as `to_json`, so a
/// byte-level comparison against the cold report is exact.
fn remote_diagnostics(reply: &Json) -> String {
    assert_eq!(reply.bool_field("ok"), Some(true), "lint failed: {reply}");
    Json::Arr(
        reply
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics array")
            .to_vec(),
    )
    .to_string()
}

fn cold_diagnostics(
    clients: &[(String, Hist)],
    repo: &Repository,
    registry: &PolicyRegistry,
) -> String {
    let doc =
        sufs_broker::json::parse(&cold_json(clients, repo, registry)).expect("report JSON parses");
    doc.get("diagnostics")
        .expect("diagnostics array")
        .to_string()
}

/// The acceptance-criterion suite: ≥200 random publish/retract
/// mutations over the wire against one broker; after every step the
/// broker's incremental `lint` reply must match a cold full re-lint of
/// a mirror repository byte-for-byte.
#[test]
fn broker_lint_matches_cold_relint_over_random_wire_mutations() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let reply = client.publish_scenario(BASE).expect("scenario reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    assert_eq!(reply.u64_field("clients"), Some(3), "{reply}");

    let sc = parse_scenario(BASE).expect("base scenario parses");
    let mut mirror = sc.repository.clone();
    let registry = sc.registry.clone();
    let mut clients = sc.clients.clone();
    clients.sort_by(|(a, _), (b, _)| a.cmp(b));

    let mut rng = StdRng::seed_from_u64(0x11C0_0902);
    let mut reused_total = 0u64;
    for step in 0..200 {
        // One random wire mutation, mirrored locally.
        let loc = LOCATIONS[rng.gen_range(0..LOCATIONS.len())];
        if rng.gen_range(0..3) < 2 {
            let body = POOL[rng.gen_range(0..POOL.len())];
            let cap = [None, Some(1u64), Some(2)][rng.gen_range(0..3usize)];
            let reply = client.publish(loc, body, cap).expect("publish reply");
            assert_eq!(reply.bool_field("ok"), Some(true), "step {step}: {reply}");
            mirror
                .restore(loc, parse_hist(body).unwrap(), cap.map(|c| c as usize))
                .expect("pool services are well-formed");
        } else {
            let reply = client.retract(loc).expect("retract reply");
            assert_eq!(reply.bool_field("ok"), Some(true), "step {step}: {reply}");
            mirror.retract(&Location::new(loc));
        }
        let reply = client.lint().expect("lint reply");
        reused_total += reply.u64_field("passes_reused").unwrap_or(0);
        assert_eq!(
            remote_diagnostics(&reply),
            cold_diagnostics(&clients, &mirror, &registry),
            "step {step}: broker lint diverged from a cold re-lint"
        );
    }
    assert!(
        reused_total > 0,
        "200 wire mutations never reused a cached pass"
    );

    // The reuse counters surface in `stats` for operators.
    let stats = client.stats().expect("stats reply");
    let lint = stats
        .get("stats")
        .and_then(|s| s.get("lint"))
        .expect("lint stats section");
    assert_eq!(lint.u64_field("requests"), Some(200));
    assert!(lint.u64_field("passes_reused").unwrap() >= reused_total);
    assert!(lint.get("reuse_rate").unwrap().as_f64().unwrap() > 0.0);

    client.shutdown().expect("shutdown reply");
    handle.wait();
}

/// Asserts a `lint_rejected` reply introducing `code`, and that the
/// mutation left no trace: the `repo` reply (capacities and policies
/// included) is byte-identical to `before` and the report has no error.
fn assert_rejected_and_reverted(client: &mut BrokerClient, reply: &Json, code: &str, before: &str) {
    assert_eq!(reply.str_field("kind"), Some("lint_rejected"), "{reply}");
    let introduced = reply
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("rejection carries diagnostics");
    assert!(
        introduced.iter().any(|d| d.str_field("code") == Some(code)),
        "{reply}"
    );
    assert_eq!(client.repo().expect("repo reply").to_string(), before);
    let lint = client.lint().expect("lint reply");
    assert_eq!(lint.u64_field("errors"), Some(0), "{lint}");
}

/// The gate scenario: one client, a main provider and a backup.
const GATED: &str = "
    client c { open 1 { int[pay -> eps] } }
    service s_main { ext[pay -> eps] }
    service s_backup { ext[pay -> eps] }
";

/// `serve --deny-lint error` end to end: retracting the backup is
/// allowed (plans survive), retracting the last provider would empty
/// the client's plan space (SUFS007, an error) and must bounce with a
/// structured `lint_rejected` reply — leaving the repository, and its
/// lint report, untouched.
#[test]
fn deny_lint_gate_rejects_mutations_that_empty_a_plan_space() {
    let config = BrokerConfig {
        deny_lint: Some(Severity::Error),
        ..Default::default()
    };
    let (handle, mut client) = spawn(config);

    let reply = client.publish_scenario(GATED).expect("scenario reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");

    // Losing the backup keeps the plan space inhabited: allowed (the
    // SUFS010 single-point-of-failure note it introduces is info-level,
    // below the deny threshold).
    let reply = client.retract("s_backup").expect("retract reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");

    // Losing the last provider empties it: rejected, with the
    // introduced SUFS007 in the structured reply.
    let reply = client.retract("s_main").expect("retract reply");
    assert_eq!(reply.bool_field("ok"), Some(false), "{reply}");
    assert_eq!(reply.str_field("kind"), Some("lint_rejected"), "{reply}");
    assert!(reply
        .str_field("error")
        .unwrap()
        .contains("--deny-lint error"));
    let introduced = reply
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("rejection carries diagnostics");
    assert!(
        introduced
            .iter()
            .any(|d| d.str_field("code") == Some("SUFS007")),
        "{reply}"
    );
    assert!(reply.str_field("human").unwrap().contains("SUFS007"));

    // The rejected mutation must not have been applied: the repository
    // still serves `c`, and the live report still has zero errors.
    let reply = client.lint().expect("lint reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    assert_eq!(reply.u64_field("errors"), Some(0), "{reply}");
    let repo = client.repo().expect("repo reply");
    assert!(repo.to_string().contains("s_main"), "{repo}");

    // A gated publish that breaks the sole provider is reverted whole:
    // its body *and* the capacity it carried (SUFS007 again).
    let reply = client
        .publish("s_main", "ext[pay -> eps]", Some(2))
        .expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let before = client.repo().expect("repo reply").to_string();
    assert!(before.contains("\"capacity\":2"), "{before}");
    let reply = client
        .publish("s_main", "ext[refund -> eps]", None)
        .expect("publish reply");
    assert_rejected_and_reverted(&mut client, &reply, "SUFS007", &before);

    // A gated retract_policy that leaves a client's annotation
    // unresolved (SUFS008, an error) is reverted too.
    let reply = client
        .publish_scenario(
            "policy once { start q0; offending bad; q0 -- charge -> q1; q1 -- charge -> bad; }
             client watched { open 2 phi once { int[pay -> eps] } }",
        )
        .expect("scenario reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let before = client.repo().expect("repo reply").to_string();
    assert!(before.contains("\"policies\":[\"once\"]"), "{before}");
    let reply = client.retract_policy("once").expect("retract_policy reply");
    assert_rejected_and_reverted(&mut client, &reply, "SUFS008", &before);

    // A gated publish_scenario is vetted the same way: a newcomer whose
    // request nobody serves is turned away wholesale.
    let reply = client
        .publish_scenario("client ghost { open 9 { int[unserved -> eps] } }")
        .expect("scenario reply");
    assert_eq!(reply.bool_field("ok"), Some(false), "{reply}");
    assert_eq!(reply.str_field("kind"), Some("lint_rejected"), "{reply}");

    // Benign mutations still pass the gate.
    let reply = client
        .publish("s_extra", "ext[pay -> eps]", None)
        .expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");

    client.shutdown().expect("shutdown reply");
    handle.wait();
}

/// The vocabulary suite's base: a client whose plans fire events of
/// their own, a client under a policy, and two policies. Every pool
/// body below falls into one of the categories the suite must cover.
const VOCAB_BASE: &str = "
    client alice { open 1 { int[ping -> eps]; ext[yes -> #won | no -> eps] }; #start }
    client bob { open 2 phi once { int[pay -> eps] } }
    service echo { ext[ping -> #tick; #tick; int[no -> eps]] }
    service till { ext[pay -> #charge] }
    policy once { start q0; offending bad; q0 -- charge -> q1; q1 -- charge -> bad; }
    policy ghost { start q0; offending bad; q0 -- phantom_op -> bad; }
";

/// Locations the vocabulary suite publishes to and retracts from.
const VOCAB_LOCATIONS: [&str; 4] = ["echo", "till", "guard", "spare"];

/// `(category, body)`: body edits that keep the alphabet and the policy
/// references, edits that add a fresh event, policy-bearing services,
/// and a service whose policy reference resolves nowhere (verification
/// is then skipped scenario-wide, while reachability is still explored).
const VOCAB_POOL: [(&str, &str); 9] = [
    ("same-vocabulary", "ext[ping -> #tick; int[no -> eps]]"),
    (
        "same-vocabulary",
        "ext[ping -> #tick; #tick; int[no -> eps]]",
    ),
    ("same-vocabulary", "ext[pay -> #charge]"),
    ("same-vocabulary", "ext[pay -> #charge; #charge]"),
    ("fresh-event", "ext[ping -> #tock; int[yes -> eps]]"),
    ("fresh-event", "ext[pay -> #charge; #refund]"),
    ("policy-bearing", "ext[pay -> frame ghost [ #charge ]]"),
    (
        "policy-bearing",
        "frame once [ ext[ping -> #charge; int[no -> eps]] ]",
    ),
    (
        "unresolved",
        "ext[ping -> frame nowhere [ #tick ]; int[no -> eps]]",
    ),
];

/// A cold full re-lint under explicit bounds, errors included.
fn cold_with(
    bound: usize,
    clients: &[(String, Hist)],
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<String, String> {
    let mut engine = LintEngine::with_bounds(bound, DEFAULT_PLAN_CAP);
    engine
        .refresh(LintInput::new(clients, repo, registry))
        .map(|_| engine.report().to_json(None))
        .map_err(|e| e.to_string())
}

/// Seeded publish/retract/revisit sequences over `VOCAB_POOL` against
/// one long-lived engine with state bound `bound`: after every step the
/// incremental report (or error) equals a cold re-lint under the same
/// bound. Returns the cold reports in step order.
fn vocabulary_suite(bound: usize, seed: u64) -> Vec<Result<String, String>> {
    let sc = parse_scenario(VOCAB_BASE).expect("vocabulary base parses");
    let mut repo = sc.repository.clone();
    let (clients, registry) = (sc.clients.clone(), sc.registry.clone());
    let mut engine = LintEngine::with_bounds(bound, DEFAULT_PLAN_CAP);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: Vec<Repository> = vec![repo.clone()];
    let mut covered = std::collections::BTreeSet::new();
    let mut vocabulary_reused = false;
    let mut reports = Vec::new();
    for step in 0..160 {
        let label = match rng.gen_range(0..6u32) {
            0..=2 => {
                let loc = VOCAB_LOCATIONS[rng.gen_range(0..VOCAB_LOCATIONS.len())];
                let (category, body) = VOCAB_POOL[rng.gen_range(0..VOCAB_POOL.len())];
                repo.restore(loc, parse_hist(body).unwrap(), None)
                    .expect("pool services are well-formed");
                covered.insert(category);
                format!("{category}: publish {loc} = {body}")
            }
            3 => {
                let loc = VOCAB_LOCATIONS[rng.gen_range(0..VOCAB_LOCATIONS.len())];
                repo.retract(&Location::new(loc));
                format!("retract {loc}")
            }
            // Revisit a state seen earlier: every lint row is a hit.
            _ => {
                let at = rng.gen_range(0..seen.len());
                repo = seen[at].clone();
                covered.insert("revisit");
                format!("revisit state {at}")
            }
        };
        seen.push(repo.clone());
        let incremental = engine
            .refresh(LintInput::new(&clients, &repo, &registry))
            .map(|outcome| {
                // Only SUFS002 and SUFS003 read nothing but the
                // vocabulary, the registry and the budgets.
                vocabulary_reused |= outcome.passes_run > 0 && outcome.passes_reused == 2;
                engine.report().to_json(None)
            })
            .map_err(|e| e.to_string());
        let cold = cold_with(bound, &clients, &repo, &registry);
        assert_eq!(
            incremental, cold,
            "bound {bound}, step {step} ({label}): incremental and cold reports diverged"
        );
        reports.push(cold);
    }
    for category in [
        "same-vocabulary",
        "fresh-event",
        "policy-bearing",
        "unresolved",
        "revisit",
    ] {
        assert!(covered.contains(category), "the suite never hit {category}");
    }
    assert!(
        vocabulary_reused,
        "no service edit ever reused the vocabulary passes"
    );
    reports
}

/// The vocabulary suite at the default bound, and at a bound so small
/// that some candidates' composed executions no longer fit: those must
/// count as unexplored exactly as a cold re-lint under that bound has
/// them, although the verdict rows explored them under the default.
#[test]
fn incremental_engine_matches_cold_relint_over_vocabulary_edits() {
    let generous = vocabulary_suite(DEFAULT_STATE_BOUND, 0x11C0_0903);
    let tight = vocabulary_suite(TIGHT_BOUND, 0x11C0_0903);
    // The same seed replays the same states, and the tight bound
    // changes some findings: the bound path is exercised.
    assert!(
        generous.iter().zip(&tight).any(|(g, t)| g != t),
        "bound {TIGHT_BOUND} never changed a finding"
    );
}

/// Below the default state bound, and below the composed state spaces
/// of the vocabulary suite's larger plans, but above every component's
/// own LTS.
const TIGHT_BOUND: usize = 7;

/// Standing findings below the deny level — dead services, unused
/// policies, a single point of failure — that a gated write must look
/// past.
const CROWDED: &str = "
    client c1 { open 1 { int[pay -> eps] } }
    client c2 { open 2 { int[ping -> eps] } }
    service s_main { ext[pay -> eps] }
    service echo_a { ext[ping -> eps] }
    service echo_b { ext[ping -> eps] }
    service dead_1 { ext[zzz -> eps] }
    service dead_2 { ext[yyy -> eps] }
    service dead_3 { ext[xxx -> eps] }
    policy ghost { start q0; offending bad; q0 -- phantom_op -> bad; }
    policy phantom { start q0; offending bad; q0 -- nothing -> bad; }
";

/// A gated write that introduces one error among many standing findings
/// is rejected with exactly that diagnostic, byte-identical to a cold
/// lint of the mutated state, and leaves state and report as they were.
#[test]
fn deny_lint_gate_names_exactly_the_introduced_error() {
    let config = BrokerConfig {
        deny_lint: Some(Severity::Error),
        ..Default::default()
    };
    let (handle, mut client) = spawn(config);
    let reply = client.publish_scenario(CROWDED).expect("scenario reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let before_repo = client.repo().expect("repo reply").to_string();
    let before = client.lint().expect("lint reply");
    let standing = remote_diagnostics(&before);
    assert_eq!(before.u64_field("errors"), Some(0), "{before}");
    assert!(
        before
            .get("diagnostics")
            .and_then(Json::as_arr)
            .unwrap()
            .len()
            >= 6,
        "{before}"
    );

    // Retracting c1's only provider empties its plan space.
    let reply = client.retract("s_main").expect("retract reply");
    assert_eq!(reply.str_field("kind"), Some("lint_rejected"), "{reply}");
    let introduced = reply
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("rejection carries diagnostics");
    assert_eq!(introduced.len(), 1, "{reply}");
    let mut sc = parse_scenario(CROWDED).expect("crowded scenario parses");
    sc.clients.sort_by(|(a, _), (b, _)| a.cmp(b));
    sc.repository.retract(&Location::new("s_main"));
    let mut cold = LintEngine::new();
    cold.refresh(LintInput::new(&sc.clients, &sc.repository, &sc.registry))
        .expect("cold lint succeeds");
    let errors: Vec<String> = cold
        .report()
        .diagnostics
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.to_json())
        .collect();
    assert_eq!(errors, [introduced[0].to_string()]);
    assert_eq!(introduced[0].str_field("code"), Some("SUFS007"));

    // Nothing of the write survives: listing and report are unchanged.
    assert_eq!(client.repo().expect("repo reply").to_string(), before_repo);
    let after = client.lint().expect("lint reply");
    assert_eq!(remote_diagnostics(&after), standing);

    client.shutdown().expect("shutdown reply");
    handle.wait();
}
