//! End-to-end tests for the broker daemon: the dynamic repository,
//! incremental re-synthesis from the composed products, admission
//! control, structured failure replies, and graceful shutdown.
//!
//! The centrepiece is [`broker_matches_in_process_synthesis_under_
//! mutation`]: one hundred-plus seeded, randomized repository-mutation /
//! plan-query interleavings against a single long-lived daemon, with
//! every reply checked verdict-for-verdict against the in-process
//! pruned reference (`synthesize` with `prune`) over a mirror
//! repository. A stale verdict or a lost mutation shows up as a
//! verdict mismatch.

use sufs_broker::{Broker, BrokerClient, BrokerConfig, BrokerHandle, Json};
use sufs_core::scenario::parse_scenario;
use sufs_core::{synthesize, verify, SynthesisOptions};
use sufs_hexpr::builder::*;
use sufs_hexpr::{Hist, Location};
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;
use sufs_rng::{Rng, SeedableRng, StdRng};

fn spawn(config: BrokerConfig) -> (BrokerHandle, BrokerClient) {
    let handle = Broker::spawn(config).expect("broker spawns");
    let client = BrokerClient::connect(handle.addr()).expect("client connects");
    (handle, client)
}

/// The booking client of the verifier's own tests: one request, two
/// acceptable outcomes.
fn booking_client() -> Hist {
    request(
        1,
        None,
        seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
    )
}

/// Candidate services for the randomized test: two compliant variants,
/// one non-compliant, one on the wrong channel entirely.
fn service_pool() -> Vec<Hist> {
    vec![
        recv("req", choose([("ok", eps()), ("no", eps())])),
        recv("req", choose([("ok", eps())])),
        recv("req", choose([("ok", eps()), ("later", eps())])),
        recv("zzz", eps()),
    ]
}

/// A comparable digest of a verdict set: `(plan, valid, violations)`
/// triples in report order.
type VerdictKey = Vec<(String, bool, Vec<String>)>;

/// The broker answers from its composed product, whose report is the
/// pruned reference's: the candidates surviving the compliance cut.
fn local_verdicts(client: &Hist, repo: &Repository, registry: &PolicyRegistry) -> VerdictKey {
    let opts = SynthesisOptions {
        prune: true,
        ..SynthesisOptions::default()
    };
    synthesize(client, repo, registry, &opts)
        .expect("in-process synthesis succeeds")
        .report
        .verdicts()
        .iter()
        .map(|v| {
            (
                v.plan.to_string(),
                v.is_valid(),
                v.violations.iter().map(|x| x.to_string()).collect(),
            )
        })
        .collect()
}

fn remote_verdicts(reply: &Json) -> VerdictKey {
    assert_eq!(reply.bool_field("ok"), Some(true), "plan failed: {reply}");
    reply
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts array")
        .iter()
        .map(|v| {
            (
                v.str_field("plan").expect("plan field").to_owned(),
                v.bool_field("valid").expect("valid field"),
                v.get("violations")
                    .and_then(Json::as_arr)
                    .expect("violations array")
                    .iter()
                    .map(|x| x.as_str().expect("violation string").to_owned())
                    .collect(),
            )
        })
        .collect()
}

/// The acceptance-criterion test: ≥100 randomized mutation/query
/// interleavings; after every mutation the broker's verdicts must be
/// identical to a fresh in-process synthesis over a mirror repository.
#[test]
fn broker_matches_in_process_synthesis_under_mutation() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let booking = booking_client();
    let pool = service_pool();
    let locations = ["s0", "s1", "s2", "s3", "s4"];
    let mut mirror = Repository::new();
    let registry = PolicyRegistry::new();
    let mut rng = StdRng::seed_from_u64(0xb20cce2);
    let mut queries = 0;
    for step in 0..120 {
        // One random mutation: publish a random pool service at a
        // random location (2:1 odds), or retract a random location.
        let loc = locations[rng.gen_range(0..locations.len())];
        if rng.gen_range(0..3) < 2 {
            let service = &pool[rng.gen_range(0..pool.len())];
            let reply = client
                .publish(loc, &service.to_string(), None)
                .expect("publish reply");
            assert_eq!(reply.bool_field("ok"), Some(true), "step {step}: {reply}");
            mirror.publish(loc, service.clone());
        } else {
            let reply = client.retract(loc).expect("retract reply");
            assert_eq!(reply.bool_field("ok"), Some(true), "step {step}: {reply}");
            mirror.retract(&Location::new(loc));
        }
        // One query: the broker's long-lived product and cache must
        // answer exactly like a fresh pruned synthesis of the mirror.
        let reply = client.plan(&booking.to_string()).expect("plan reply");
        let remote = remote_verdicts(&reply);
        let local = local_verdicts(&booking, &mirror, &registry);
        assert_eq!(remote, local, "step {step}: broker diverged from mirror");
        queries += 1;
    }
    assert!(queries >= 100, "the test must exercise ≥100 interleavings");
    // The long-lived cache must actually have been doing its job:
    // across 120 near-identical queries the hit counter dwarfs misses.
    let stats = client.stats().expect("stats reply");
    let snap = stats.get("stats").expect("stats object");
    assert!(snap.u64_field("cache_hits").unwrap() > snap.u64_field("cache_misses").unwrap());
    handle.join();
}

/// Publishes `n` compliant responders for the booking client: `n`
/// surviving candidate plans.
fn publish_compliant(client: &mut BrokerClient, n: usize) {
    let good = service_pool()[0].to_string();
    for i in 0..n {
        let reply = client
            .publish(&format!("s{i}"), &good, None)
            .expect("publish reply");
        assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    }
}

/// A request's `plan_cap` may lower the daemon's `--plan-cap`, never
/// raise it: one client must not make the daemon walk an unbounded
/// plan space under the store lock.
#[test]
fn request_plan_cap_lowers_but_never_raises_the_daemon_cap() {
    let booking = booking_client().to_string();
    let capped = |reply: &Json| {
        reply.bool_field("ok") == Some(false)
            && reply
                .str_field("error")
                .is_some_and(|e| e.contains("more than 2 candidate plans"))
    };

    let (handle, mut client) = spawn(BrokerConfig {
        plan_cap: 2,
        ..BrokerConfig::default()
    });
    publish_compliant(&mut client, 5);
    for extra in [
        Json::obj(),
        Json::obj().with("plan_cap", 1_000_000u64),
        Json::obj().with("plan_cap", u64::MAX),
        Json::obj()
            .with("plan_cap", 1_000_000u64)
            .with("max_valid", 1u64),
    ] {
        let reply = client.plan_with(&booking, extra.clone()).expect("plan");
        assert!(capped(&reply), "{extra} raised the cap: {reply}");
    }
    handle.join();

    let (handle, mut client) = spawn(BrokerConfig::default());
    publish_compliant(&mut client, 5);
    let reply = client.plan(&booking).expect("plan");
    assert_eq!(
        reply.get("valid").and_then(Json::as_arr).map(<[_]>::len),
        Some(5)
    );
    // Lowering works, also against the product the query above warmed.
    for extra in [
        Json::obj().with("plan_cap", 2u64),
        Json::obj().with("plan_cap", 2u64).with("max_valid", 1u64),
    ] {
        let reply = client.plan_with(&booking, extra.clone()).expect("plan");
        assert!(capped(&reply), "{extra} did not lower the cap: {reply}");
    }
    handle.join();
}

/// `plan` answers from one engine; a caller asking for another gets a
/// `bad_request` naming the field instead of a different report shape.
#[test]
fn plan_rejects_any_engine_but_compositional() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    publish_compliant(&mut client, 1);
    let booking = booking_client().to_string();
    for engine in [
        Json::str("enumerative"),
        Json::str("bogus"),
        Json::from(1u64),
    ] {
        let reply = client
            .plan_with(&booking, Json::obj().with("engine", engine.clone()))
            .expect("plan reply");
        assert_eq!(reply.bool_field("ok"), Some(false), "{reply}");
        assert_eq!(reply.str_field("kind"), Some("bad_request"), "{reply}");
        assert!(
            reply
                .str_field("error")
                .is_some_and(|e| e.contains("`engine`")),
            "{reply}"
        );
    }
    let reply = client
        .plan_with(&booking, Json::obj().with("engine", "compositional"))
        .expect("plan reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    handle.join();
}

/// The Fig. 2 smoke path: publish the hotel scenario, expect the
/// paper's valid plan π₁ = {r1↦br, r3↦s3}, lose it on retraction.
#[test]
fn hotel_scenario_round_trip_and_retraction() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/hotel.sufs"))
            .expect("hotel scenario readable");
    let reply = client.publish_scenario(&text).expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    assert_eq!(reply.u64_field("services"), Some(5));
    assert_eq!(reply.u64_field("policies"), Some(1));

    let sc = sufs_core::scenario::parse_scenario(&text).expect("hotel parses");
    let c1 = sc.client("c1").expect("c1 exists").to_string();
    let reply = client.plan(&c1).expect("plan reply");
    let valid: Vec<&str> = reply
        .get("valid")
        .and_then(Json::as_arr)
        .expect("valid array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(valid, ["{r1↦br, r3↦s3}"], "the paper's π₁");

    // Executing through the broker uses the same plan and completes.
    let run = client
        .run(&c1, Json::obj().with("seed", 7u64))
        .expect("run");
    assert_eq!(run.bool_field("ok"), Some(true), "{run}");
    assert_eq!(run.str_field("plan"), Some("{r1↦br, r3↦s3}"));
    assert_eq!(run.str_field("outcome"), Some("completed"));

    // Retract the load-bearing s3: the next plan reply must degrade to
    // an empty valid set, and a run must fail with a *structured*
    // `no_valid_plan` error — no hang, no stale cache.
    let reply = client.retract("s3").expect("retract reply");
    assert_eq!(reply.bool_field("changed"), Some(true));
    let reply = client.plan(&c1).expect("plan reply");
    assert_eq!(reply.bool_field("ok"), Some(true));
    assert_eq!(
        reply.get("valid").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
    let run = client.run(&c1, Json::obj()).expect("run reply");
    assert_eq!(run.bool_field("ok"), Some(false));
    assert_eq!(run.str_field("kind"), Some("no_valid_plan"));
    handle.join();
}

/// The valid plans a `plan` reply lists, or its error message.
fn answered(reply: &Json) -> Result<Vec<String>, String> {
    if reply.bool_field("ok") != Some(true) {
        return Err(reply.str_field("error").unwrap_or("?").to_owned());
    }
    Ok(reply
        .get("valid")
        .and_then(Json::as_arr)
        .expect("valid array")
        .iter()
        .map(|p| p.as_str().expect("plan string").to_owned())
        .collect())
}

/// The same answer from a fresh in-process `verify`.
fn expected(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<Vec<String>, String> {
    verify(client, repo, registry)
        .map(|report| report.valid_plans().map(ToString::to_string).collect())
        .map_err(|e| e.to_string())
}

/// Two brokers expose nested request `r3` with different bodies; only
/// `a_br`'s accepts every reply the leaf may send. A verdict shared by
/// request id would also validate `{r1↦b_br, r3↦leaf}`.
#[test]
fn ambiguous_nested_request_bodies_over_the_wire() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let a_br = recv("q", request(3, None, offer([("a", eps()), ("b", eps())])));
    let b_br = recv("q", request(3, None, offer([("a", eps())])));
    let leaf = choose([("a", eps()), ("b", eps())]);
    for (loc, service) in [("a_br", &a_br), ("b_br", &b_br), ("leaf", &leaf)] {
        let reply = client
            .publish(loc, &service.to_string(), None)
            .expect("publish reply");
        assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    }
    let caller = request(1, None, send("q", eps()));
    let reply = client.plan(&caller.to_string()).expect("plan reply");
    assert_eq!(
        answered(&reply),
        Ok(vec!["{r1↦a_br, r3↦leaf}".to_owned()]),
        "{reply}"
    );
    handle.join();
}

/// A warm product follows policy-registry mutations on its own: no
/// mutation handler invalidates anything, yet after redefining and then
/// retracting the policy the client's product answers exactly like a
/// fresh in-process `verify` of a mirror state, patching rather than
/// rebuilding.
#[test]
fn warm_product_revalidates_on_registry_change() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/hotel.sufs"))
            .expect("hotel scenario readable");
    let reply = client.publish_scenario(&text).expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let sc = parse_scenario(&text).expect("hotel parses");
    let c1 = sc.client("c1").expect("c1 exists").clone();
    let mut registry = sc.registry.clone();

    // 1. Warm c1's product.
    let warm = answered(&client.plan(&c1.to_string()).expect("plan reply"));
    assert_eq!(warm, expected(&c1, &sc.repository, &registry));
    assert_eq!(warm, Ok(vec!["{r1↦br, r3↦s3}".to_owned()]));

    // 2. Redefine `hotel` as its black-list clause alone: the price and
    //    tax bounds that rejected s4 are gone.
    let relaxed = "policy hotel(bl, p, t) {\n  start q1;\n  offending q6;\n  \
                   q1 -- sgn(x0) if x0 in bl -> q6;\n}\n";
    let reply = client.publish_scenario(relaxed).expect("publish reply");
    assert_eq!(reply.u64_field("policies"), Some(1), "{reply}");
    for automaton in parse_scenario(relaxed)
        .expect("policy parses")
        .registry
        .iter()
    {
        registry.register(automaton.clone());
    }
    let flipped = answered(&client.plan(&c1.to_string()).expect("plan reply"));
    assert_eq!(flipped, expected(&c1, &sc.repository, &registry));
    assert_ne!(flipped, warm, "redefining the policy must flip verdicts");

    // 3. Retract it: c1 now names an unknown policy.
    let reply = client.retract_policy("hotel").expect("retract reply");
    assert_eq!(reply.bool_field("changed"), Some(true), "{reply}");
    registry.remove("hotel");
    let gone = answered(&client.plan(&c1.to_string()).expect("plan reply"));
    assert_eq!(gone, expected(&c1, &sc.repository, &registry));
    assert!(gone.is_err(), "{gone:?}");

    let stats = client.stats().expect("stats reply");
    let products = stats.get("products").expect("products object");
    assert_eq!(products.u64_field("builds"), Some(1), "{stats}");
    assert!(products.u64_field("patches").unwrap() >= 1, "{stats}");
    handle.join();
}

/// Publishes a two-request client and three services, warms its
/// product, publishes a never-seen variant of `b` (which the client's
/// plans bind), and returns the cache counters of the next `plan`
/// reply as `(hits, misses)`.
fn cache_counters_of_read_after_fresh_write(config: BrokerConfig) -> (u64, u64) {
    let (handle, mut client) = spawn(config);
    let scenario = "client c {\n\
        open 1 { int[req -> eps]; ext[ok -> eps | no -> eps] };\n\
        open 2 { int[req -> eps]; ext[ok -> eps | no -> eps] }\n\
        }\n\
        service a { ext[req -> int[ok -> eps | no -> eps]] }\n\
        service b { ext[req -> int[ok -> eps]] }\n\
        service z { ext[zzz -> eps] }\n";
    let reply = client.publish_scenario(scenario).expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let c = parse_scenario(scenario)
        .expect("scenario parses")
        .client("c")
        .expect("c exists")
        .to_string();
    let warm = client.plan(&c).expect("plan reply");
    assert_eq!(warm.bool_field("ok"), Some(true), "{warm}");
    let reply = client
        .publish("b", "#tick; ext[req -> int[ok -> eps]]", None)
        .expect("publish reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let read = client.plan(&c).expect("plan reply");
    assert_eq!(read.bool_field("ok"), Some(true), "{read}");
    let stats = read.get("stats").expect("stats object");
    assert_eq!(
        stats.get("product").and_then(|p| p.u64_field("patched")),
        Some(1),
        "{read}"
    );
    let cache = stats.get("cache").expect("cache object");
    let counters = (
        cache.u64_field("hits").expect("hits"),
        cache.u64_field("misses").expect("misses"),
    );
    handle.join();
    counters
}

/// Lint and the products share one verdict table: on a gated broker
/// the gate verified every plan the write touched, so the read that
/// follows computes nothing. Ungated, the same read must compute the
/// rows of the plans that bind the mutated location.
#[test]
fn gated_write_pays_every_verdict_its_next_read_needs() {
    let gated = cache_counters_of_read_after_fresh_write(BrokerConfig {
        deny_lint: Some(sufs_lint::Severity::Error),
        ..BrokerConfig::default()
    });
    assert!(gated.0 > 0, "the read looked nothing up: {gated:?}");
    assert_eq!(gated.1, 0, "the read recomputed what the gate paid for");
    let ungated = cache_counters_of_read_after_fresh_write(BrokerConfig::default());
    assert!(ungated.1 > 0, "ungated, the read must compute: {ungated:?}");
}

/// Runs with the PR-1 fault machinery: injected revocations trigger the
/// verified fallback chain, and the broker reports the failover.
#[test]
fn run_with_faults_fails_over_to_the_backup_plan() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let good = recv("req", choose([("ok", eps()), ("no", eps())]));
    for loc in ["primary", "backup"] {
        let reply = client
            .publish(loc, &good.to_string(), None)
            .expect("publish reply");
        assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    }
    let booking = booking_client().to_string();
    // An aggressive crash schedule with recovery armed: scan seeds
    // until one run completes via failover (both the fault schedule and
    // the trace are deterministic per seed, so the scan is stable).
    let mut recovered = false;
    for seed in 0..40u64 {
        let run = client
            .run(
                &booking,
                Json::obj()
                    .with(
                        "faults",
                        format!("crash=0.3,max_crashes=1,timeout=2,retries=1,seed={seed}"),
                    )
                    .with("recover", true)
                    .with("committed", true)
                    .with("seed", seed),
            )
            .expect("run reply");
        assert_eq!(run.bool_field("ok"), Some(true), "{run}");
        if run.bool_field("recovered") == Some(true) {
            assert!(run.str_field("outcome").unwrap().contains("recovered via"));
            recovered = true;
            break;
        }
    }
    assert!(recovered, "no seed produced a failover");
    let stats = client.stats().expect("stats reply");
    let snap = stats.get("stats").expect("stats object");
    assert!(snap.u64_field("failed_over").unwrap() >= 1);
    handle.join();
}

/// Publishing garbage is rejected with the right error kinds, and the
/// repository stays untouched.
#[test]
fn zero_capacity_publish_dooms_every_plan_statically() {
    let (_handle, mut client) = spawn(BrokerConfig::default());
    // The only matching responder has capacity 0: no session can ever
    // open there, so the progress check must reject the plan statically
    // — a structured empty answer, never a hang or a false positive.
    let service = service_pool()[0].to_string();
    let reply = client
        .publish("dead", &service, Some(0))
        .expect("publish succeeds");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let reply = client
        .plan(&booking_client().to_string())
        .expect("plan answers");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let valid = reply.get("valid").and_then(Json::as_arr).expect("valid");
    assert!(valid.is_empty(), "capacity 0 must doom the plan: {reply}");
    // Republishing with capacity 1 revives it through the same cache.
    let reply = client
        .publish("dead", &service, Some(1))
        .expect("republish succeeds");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let reply = client
        .plan(&booking_client().to_string())
        .expect("plan answers");
    let valid = reply.get("valid").and_then(Json::as_arr).expect("valid");
    assert_eq!(valid.len(), 1, "capacity 1 must revive the plan: {reply}");
}

#[test]
fn publish_rejects_ill_formed_and_unparsable_services() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    // Ill-formed: an unguarded recursion fails wf-checking.
    let reply = client.publish("bad", "mu h. h", None).expect("reply");
    assert_eq!(reply.bool_field("ok"), Some(false));
    assert_eq!(reply.str_field("kind"), Some("ill_formed"));
    // Unparsable text.
    let reply = client.publish("worse", "int[", None).expect("reply");
    assert_eq!(reply.str_field("kind"), Some("parse"));
    // Unknown command and missing fields are bad requests.
    let reply = client
        .request(&Json::obj().with("cmd", "frobnicate"))
        .expect("reply");
    assert_eq!(reply.str_field("kind"), Some("bad_request"));
    let reply = client
        .request(&Json::obj().with("cmd", "publish"))
        .expect("reply");
    assert_eq!(reply.str_field("kind"), Some("bad_request"));
    // Nothing leaked into the repository.
    let repo = client.repo().expect("repo reply");
    assert_eq!(
        repo.get("services")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    handle.join();
}

/// A `run` with a forced plan skips the product, so it must check the
/// client's well-formedness itself: this ill-formed client (a jump under
/// a sequence) has an infinite state space, and diagnosing its deadlock
/// against `srv` used to exhaust the broker's memory. It is refused as
/// `plan` refuses it, and the broker keeps serving.
#[test]
fn run_rejects_an_ill_formed_client_with_a_forced_plan() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let reply = client.publish("srv", "int[y -> eps]", None).expect("reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let ill_formed = "open 1 { mu h. ext[z -> h; #e] }";
    let run = Json::obj()
        .with("cmd", "run")
        .with("client", ill_formed)
        .with("plan", "r1=srv");
    let plan = Json::obj().with("cmd", "plan").with("client", ill_formed);
    for request in [&run, &plan] {
        let reply = client.request(request).expect("reply");
        assert_eq!(reply.bool_field("ok"), Some(false), "{reply}");
        assert_eq!(reply.str_field("kind"), Some("verify"), "{reply}");
        let message = reply.str_field("error").expect("error message");
        assert!(message.starts_with("ill-formed client: "), "{reply}");
    }
    // The broker still answers: a well-formed forced run deadlocks on
    // the unmatched `y` and says so.
    let reply = client
        .request(
            &Json::obj()
                .with("cmd", "run")
                .with("client", "open 1 { ext[z -> eps] }")
                .with("plan", "r1=srv"),
        )
        .expect("reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    assert_eq!(reply.bool_field("success"), Some(false), "{reply}");
    handle.join();
}

/// An optional field sent with the wrong shape is a `bad_request`, never
/// read as its default: a `capacity` of `-1`, `"2"` or `1.5` must not
/// republish the service unbounded, and a malformed query option must
/// not be served as if it were absent.
#[test]
fn malformed_optional_fields_are_rejected_not_defaulted() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let service = service_pool()[0].to_string();
    let reply = client.publish("s", &service, Some(1)).expect("reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let before = client.repo().expect("repo reply").to_string();
    assert!(before.contains("\"capacity\":1"), "{before}");

    let booking = booking_client().to_string();
    let publish = |capacity: Json| {
        Json::obj()
            .with("cmd", "publish")
            .with("location", "s")
            .with("service", service.as_str())
            .with("capacity", capacity)
    };
    let query = |cmd: &str, field: &str, value: Json| {
        Json::obj()
            .with("cmd", cmd)
            .with("client", booking.as_str())
            .with(field, value)
    };
    let mut bad = vec![
        ("capacity", publish(Json::Num(-1.0))),
        ("capacity", publish(Json::str("2"))),
        ("capacity", publish(Json::Num(1.5))),
        ("capacity", publish(Json::Null)),
    ];
    for (cmd, field, value) in [
        ("plan", "max_valid", Json::str("1")),
        ("plan", "plan_cap", Json::Num(-2.0)),
        ("plan", "plan_cap", Json::Num(0.5)),
        ("plan", "plan_cap", Json::Bool(true)),
        ("run", "fuel", Json::Num(0.5)),
        ("run", "seed", Json::str("7")),
        ("run", "recover", Json::str("true")),
        ("run", "committed", Json::Num(1.0)),
        ("run", "monitor", Json::Null),
        ("run", "faults", Json::Num(0.2)),
        ("run", "plan", Json::Bool(false)),
    ] {
        bad.push((field, query(cmd, field, value)));
    }
    for (field, request) in &bad {
        let reply = client.request(request).expect("reply");
        assert_eq!(
            reply.str_field("kind"),
            Some("bad_request"),
            "{request} -> {reply}"
        );
        assert!(
            reply.str_field("error").unwrap().contains(field),
            "{request} -> {reply}"
        );
    }
    // Nothing was published, and the bound survived.
    assert_eq!(client.repo().expect("repo reply").to_string(), before);

    // Well-shaped values are still served.
    let reply = client.request(&publish(Json::from(2u64))).expect("reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    let reply = client
        .request(&query("plan", "max_valid", Json::from(1u64)))
        .expect("reply");
    assert_eq!(reply.u64_field("valid_total"), Some(1), "{reply}");
    let reply = client
        .request(&query("run", "recover", Json::Bool(true)))
        .expect("reply");
    assert_eq!(reply.bool_field("success"), Some(true), "{reply}");
    handle.join();
}

/// Admission control: past `max_clients` the broker *replies* `busy`
/// rather than stalling the accept queue; capacity freed by a closing
/// client is reusable.
#[test]
fn admission_control_replies_busy_at_capacity() {
    let config = BrokerConfig {
        max_clients: 1,
        ..BrokerConfig::default()
    };
    let (handle, mut first) = spawn(config);
    assert_eq!(
        first.ping().expect("ping").bool_field("ok"),
        Some(true),
        "the first client is admitted"
    );
    // The second concurrent client is rejected before its request is
    // read: the daemon tags the busy reply `"unsolicited": true` and
    // the client surfaces it as `ConnectionRefused` rather than
    // misattributing it to the request it was about to send.
    let mut second = BrokerClient::connect(handle.addr()).expect("connect");
    let err = second
        .ping()
        .expect_err("an unsolicited busy surfaces as a transport error");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(
        err.to_string().contains("broker at capacity"),
        "the refusal carries the daemon's reason: {err}"
    );
    // Closing the first frees the slot (the acceptor reaps the handler
    // lazily, so poll briefly).
    drop(first);
    let mut admitted = false;
    for _ in 0..100 {
        let mut third = BrokerClient::connect(handle.addr()).expect("connect");
        match third.ping() {
            Ok(reply) if reply.bool_field("ok") == Some(true) => {
                admitted = true;
                break;
            }
            Ok(_) => {}
            // Still at capacity: the unsolicited busy surfaces as a
            // refusal until the acceptor reaps the closed handler.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
            Err(e) => panic!("unexpected transport error: {e}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(admitted, "a freed slot must be reusable");
    handle.join();
}

/// Graceful shutdown over the wire: the daemon acknowledges, drains,
/// and then refuses new work.
#[test]
fn wire_shutdown_drains_and_rejects_new_connections() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let good = recv("req", choose([("ok", eps()), ("no", eps())]));
    client
        .publish("s", &good.to_string(), None)
        .expect("publish");
    let addr = handle.addr();
    let reply = client.shutdown().expect("shutdown acknowledged");
    assert_eq!(reply.bool_field("ok"), Some(true));
    assert_eq!(reply.bool_field("draining"), Some(true));
    // join() returns because the wire shutdown already drained the
    // daemon; afterwards nothing listens on the port any more (or, in
    // the shutdown race, a late connection is refused with a frame).
    handle.join();
    if let Ok(mut late) = BrokerClient::connect(addr) {
        let reply = late.ping();
        assert!(
            reply.is_err() || reply.unwrap().bool_field("ok") == Some(false),
            "a drained broker must not accept new work"
        );
    }
}

/// `stats` exposes the histogram and hit-rate fields the bench and the
/// CI smoke script key on.
#[test]
fn stats_reply_has_the_documented_shape() {
    let (handle, mut client) = spawn(BrokerConfig::default());
    let good = recv("req", choose([("ok", eps()), ("no", eps())]));
    client
        .publish("s", &good.to_string(), None)
        .expect("publish");
    client.plan(&booking_client().to_string()).expect("plan");
    let reply = client.stats().expect("stats");
    assert_eq!(reply.bool_field("ok"), Some(true));
    let snap = reply.get("stats").expect("stats object");
    for field in [
        "uptime_ms",
        "connections",
        "rejected_busy",
        "requests",
        "errors",
        "mutations",
        "plans",
        "runs",
        "failed_over",
        "cache_hits",
        "cache_misses",
    ] {
        assert!(snap.u64_field(field).is_some(), "missing field {field}");
    }
    assert!(snap.get("cache_hit_rate").and_then(Json::as_f64).is_some());
    let hist = snap.get("synthesis_ms_histogram").expect("histogram");
    let total: u64 = [
        "le_1ms",
        "le_5ms",
        "le_10ms",
        "le_50ms",
        "le_100ms",
        "le_500ms",
        "le_1000ms",
        "inf",
    ]
    .iter()
    .map(|b| hist.u64_field(b).expect("bucket"))
    .sum();
    assert_eq!(total, 1, "one synthesis was observed");
    handle.join();
}
