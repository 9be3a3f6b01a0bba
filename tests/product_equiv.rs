//! Seeded differential suite for the compositional synthesis engine:
//! whatever the repository looks like, reading plans off the composed
//! product must agree with the sequential enumerative reference.
//!
//! Four notions of agreement are asserted, matching the documented
//! guarantees of `sufs_core::verify` and `sufs_core::product`:
//!
//! * the **pruned** reference's valid plan set equals the **unpruned**
//!   reference's (`verify`) — the compliance cut only ever removes
//!   invalid candidates;
//! * the compositional **valid plan set** equals the unpruned
//!   reference's;
//! * the compositional **report** (surviving candidates + verdicts, in
//!   order) equals the pruned reference's report — both cut exactly
//!   the branches a compliance witness condemns;
//! * under a long seeded stream of mutations (publish, retract,
//!   capacity-only republish, nested requests appearing and
//!   disappearing, ambiguous bodies, policy register/remove, a lowered
//!   plan cap), each reverted and re-applied, the **resident** product
//!   re-derived through a shared verdict cache equals a cold rebuild at
//!   every step — report, counts and errors — and a revisited state
//!   computes no verdict.

use sufs_core::product::synthesize_one_shot;
use sufs_core::scenario::parse_scenario;
use sufs_core::{
    synthesize, verify, Engine, ProductStore, Synthesis, SynthesisOptions, VerifyCache, VerifyError,
};
use sufs_hexpr::builder::*;
use sufs_hexpr::{Hist, Location, ParamValue, PolicyRef};
use sufs_net::{Plan, Repository};
use sufs_policy::{catalog, PolicyRegistry};
use sufs_rng::{Rng, SeedableRng, StdRng};

fn compositional() -> SynthesisOptions {
    SynthesisOptions {
        engine: Engine::Compositional,
        ..SynthesisOptions::default()
    }
}

fn pruned() -> SynthesisOptions {
    SynthesisOptions {
        prune: true,
        ..SynthesisOptions::default()
    }
}

/// Asserts the engines agree on `client` against this repository
/// state: valid sets vs the unpruned reference, full reports vs the
/// pruned reference. Returns the compositional answer.
fn check_engines_agree(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    label: &str,
) -> Synthesis {
    let baseline = verify(client, repo, registry).unwrap();
    let baseline_valid: Vec<&Plan> = baseline.valid_plans().collect();
    let pruned = synthesize(client, repo, registry, &pruned()).unwrap();
    assert_eq!(
        pruned.report.valid_plans().collect::<Vec<_>>(),
        baseline_valid,
        "{label}: the compliance cut changed the valid plan set"
    );
    let comp = synthesize(client, repo, registry, &compositional()).unwrap();
    assert_eq!(comp.stats.engine, Engine::Compositional, "{label}");
    assert_eq!(
        comp.report.valid_plans().collect::<Vec<_>>(),
        baseline_valid,
        "{label}: the compositional engine changed the valid plan set"
    );
    assert_eq!(
        comp.report.verdicts(),
        pruned.report.verdicts(),
        "{label}: the compositional report diverges from the pruned oracle"
    );
    comp
}

/// A random synthesis scenario: a client of 1–3 request/response
/// sessions (some policy-guarded) over a repository mixing compliant,
/// non-compliant, policy-violating and brokering services. Mirrors the
/// generator of `tests/synthesis_equiv.rs` so the two suites cover the
/// same space.
fn random_scenario(seed: u64) -> (Hist, Repository, PolicyRegistry) {
    let mut r = StdRng::seed_from_u64(seed);
    let replies = ["ok", "no", "later"];
    let subset = |r: &mut StdRng, max: usize| -> Vec<&'static str> {
        let k = r.gen_range(1..=max);
        replies[..k].to_vec()
    };

    let mut registry = PolicyRegistry::new();
    registry.register(catalog::blacklist("access"));
    let phi = PolicyRef::new("blacklist_access", [ParamValue::set(["evil"])]);

    let n_requests = r.gen_range(1usize..=3);
    let client = Hist::seq_all((0..n_requests).map(|i| {
        let offered = subset(&mut r, 2);
        let policy = r.gen_bool(0.5).then(|| phi.clone());
        request(
            i as u32 + 1,
            policy,
            seq([
                send("q", eps()),
                offer(offered.into_iter().map(|l| (l, eps()))),
            ]),
        )
    }));

    let mut repo = Repository::new();
    let n_services = r.gen_range(2usize..=4);
    // Some seeds let every broker share one nested request id, each
    // with its own body: the case where a request id alone no longer
    // names a body and compliance pruning switches itself off.
    let shared_id = r.gen_bool(0.4);
    for i in 0..n_services {
        let chosen = subset(&mut r, 3);
        let reply = choose(chosen.into_iter().map(|l| (l, eps())));
        let resource = if r.gen_bool(0.3) { "evil" } else { "fine" };
        let body = if r.gen_bool(if shared_id { 0.7 } else { 0.3 }) {
            // A broker: answering exposes a nested request of its own.
            let (id, nested) = if shared_id {
                // Alternate the accepted replies so two brokers differ.
                let expected = &replies[..1 + i % 2];
                (
                    100,
                    seq([
                        send("w", eps()),
                        offer(expected.iter().map(|l| (*l, eps()))),
                    ]),
                )
            } else {
                (100 + i as u32, send("w", eps()))
            };
            Hist::seq(
                request(id, None, nested),
                seq([ev("access", [resource]), reply]),
            )
        } else {
            seq([ev("access", [resource]), reply])
        };
        repo.publish(format!("s{i}"), recv("q", body));
    }
    // Leaves for the brokers' nested requests: one that answers, one
    // that cannot, and (for shared ids) one whose reply only some of
    // the bodies accept.
    repo.publish("leaf", recv("w", eps()));
    repo.publish("deadleaf", recv("zz", eps()));
    if shared_id {
        repo.publish("picky", recv("w", choose([("ok", eps()), ("no", eps())])));
    }
    (client, repo, registry)
}

#[test]
fn compositional_matches_enumerative_on_random_scenarios() {
    let mut ambiguous = 0;
    for seed in 0..15u64 {
        let (client, repo, registry) = random_scenario(seed);
        let comp = check_engines_agree(&client, &repo, &registry, &format!("seed {seed}"));
        ambiguous += usize::from(!comp.stats.prune_active);
    }
    assert!(
        ambiguous > 0,
        "no seed exposed one request id with two bodies"
    );
}

/// Two brokers expose the same nested request id `r3` with different
/// bodies: `a_br` accepts `a` or `b` from its leaf, `b_br` only `a`.
/// The leaf may answer `b`, so `{r1↦b_br, r3↦leaf}` is non-compliant
/// even though `{r1↦a_br, r3↦leaf}` is valid. A verdict memo keyed by
/// `(request id, location)` would carry the second plan's verdict over
/// to the first.
#[test]
fn ambiguous_nested_request_bodies_are_checked_per_plan() {
    let client = request(1, None, send("q", eps()));
    let mut repo = Repository::new();
    repo.publish(
        "a_br",
        recv("q", request(3, None, offer([("a", eps()), ("b", eps())]))),
    );
    repo.publish("b_br", recv("q", request(3, None, offer([("a", eps())]))));
    repo.publish("leaf", choose([("a", eps()), ("b", eps())]));
    let registry = PolicyRegistry::new();
    let comp = check_engines_agree(&client, &repo, &registry, "ambiguous bodies");
    assert!(!comp.stats.prune_active);
    let valid: Vec<String> = comp.report.valid_plans().map(Plan::to_string).collect();
    assert_eq!(valid, ["{r1↦a_br, r3↦leaf}"]);
}

#[test]
fn compositional_matches_enumerative_on_shipped_scenarios() {
    for name in [
        "hotel.sufs",
        "faulty.sufs",
        "payment.sufs",
        "storage.sufs",
        "metered.sufs",
    ] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let sc = parse_scenario(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (client_name, client) in &sc.clients {
            check_engines_agree(
                client,
                &sc.repository,
                &sc.registry,
                &format!("{name}:{client_name}"),
            );
        }
    }
}

/// The candidate services the mutation stream draws from: compliant
/// responders, a short-changing one, a policy violator, an off-channel
/// decoy, brokers whose answers open nested requests (two of them share
/// the id `r100` with different bodies, which switches compliance
/// pruning off while both are published), and a leaf for those nested
/// requests.
fn mutation_pool() -> Vec<Hist> {
    let broker = |id: u32, nested: Hist| {
        recv(
            "q",
            Hist::seq(request(id, None, nested), choose([("ok", eps())])),
        )
    };
    vec![
        recv("q", choose([("ok", eps()), ("no", eps())])),
        recv("q", choose([("ok", eps())])),
        recv(
            "q",
            Hist::seq(ev("access", ["evil"]), choose([("ok", eps())])),
        ),
        recv("q", choose([("ok", eps()), ("later", eps())])),
        recv("zz", eps()),
        broker(100, send("w", eps())),
        broker(100, seq([send("w", eps()), offer([("a", eps())])])),
        broker(101, send("w", eps())),
        recv("w", choose([("a", eps())])),
    ]
}

/// What a read reports besides its verdicts: candidates, pruned
/// subtrees, whether pruning was active, admissible and total edges.
fn shape(s: &Synthesis) -> (usize, usize, bool, usize, usize) {
    let info = s.stats.product.expect("compositional stats");
    (
        s.stats.candidates,
        s.stats.pruned_subtrees,
        s.stats.prune_active,
        info.admissible_edges,
        info.total_edges,
    )
}

/// A seeded stream of mutations — services published, replaced and
/// retracted, nested requests appearing and disappearing, capacity-only
/// republishes, an unreferenced policy registered and removed, and
/// bodies that switch pruning off and on — each reverted and re-applied,
/// with the plan cap sometimes lowered for the first read after a step.
/// After every step the resident product, re-derived through a shared
/// cache, must equal a cold build: the report, the candidate and cut
/// counts, whether pruning is active, the edge counts, and any error.
#[test]
fn incrementally_patched_product_is_byte_identical_to_cold_rebuild() {
    let mut registry = PolicyRegistry::new();
    registry.register(catalog::blacklist("access"));
    let phi = PolicyRef::new("blacklist_access", [ParamValue::set(["evil"])]);
    let client = Hist::seq_all((1..=2u32).map(|i| {
        request(
            i,
            (i == 1).then(|| phi.clone()),
            seq([send("q", eps()), offer([("ok", eps()), ("no", eps())])]),
        )
    }));

    let pool = mutation_pool();
    let slots: Vec<Location> = (0..5).map(|i| Location::from(format!("s{i}"))).collect();
    let mut repo = Repository::new();
    repo.publish(slots[0].clone(), pool[0].clone());
    repo.publish(slots[1].clone(), pool[1].clone());

    let store = ProductStore::new();
    let cache = VerifyCache::new();
    let opts = compositional();
    let mut issued = 0usize;
    // The long-lived store re-derives through the shared cache; the
    // one-shot store rebuilds cold. Equal answers, every read.
    let mut read = |repo: &Repository,
                    registry: &PolicyRegistry,
                    opts: &SynthesisOptions,
                    label: &str|
     -> Result<Synthesis, VerifyError> {
        issued += 1;
        let warm = store.synthesize(&client, repo, registry, opts, Some(&cache));
        let cold = synthesize_one_shot(&client, repo, registry, opts, None);
        match (&warm, &cold) {
            (Ok(w), Ok(c)) => {
                assert_eq!(
                    w.report.verdicts(),
                    c.report.verdicts(),
                    "{label}: the resident product diverged from a cold rebuild"
                );
                assert_eq!(shape(w), shape(c), "{label}: the product's shape diverged");
            }
            (Err(w), Err(c)) => assert_eq!(w, c, "{label}: different errors"),
            _ => panic!(
                "{label}: warm ok = {}, cold ok = {}",
                warm.is_ok(),
                cold.is_ok()
            ),
        }
        warm
    };
    read(&repo, &registry, &opts, "initial state").unwrap();
    let extra = catalog::at_most("access", 1);
    let mut r = StdRng::seed_from_u64(2026);
    let (mut dropped, mut refused_in_place, mut unpruned) = (0usize, 0usize, 0usize);
    let steps = 200usize;
    for step in 1..=steps {
        let before = (repo.clone(), registry.clone());
        let slot = &slots[r.gen_range(0..slots.len())];
        let roll = r.gen_range(0..100u32);
        if roll < 10 {
            // Register or remove a policy no request refers to.
            if registry.remove(extra.name()).is_none() {
                registry.register(extra.clone());
            }
        } else if roll < 25 && repo.get(slot).is_some() {
            // Republish the same behaviour under another capacity.
            let service = repo.get(slot).unwrap().clone();
            match repo.capacity(slot).flatten() {
                Some(_) if r.gen_bool(0.5) => repo.publish(slot.clone(), service),
                _ => repo.publish_bounded(slot.clone(), service, r.gen_range(1..=3usize)),
            };
        } else if roll < 50 && repo.get(slot).is_some() && repo.len() > 1 {
            repo.retract(slot);
        } else {
            let service = pool[r.gen_range(0..pool.len())].clone();
            repo.publish(slot.clone(), service);
        }
        let after = (repo.clone(), registry.clone());

        // Sometimes the first read after the step runs under a lower
        // cap; a warm store must then refuse exactly as a cold one does.
        if r.gen_bool(0.2) {
            let capped = SynthesisOptions {
                plan_cap: r.gen_range(1..=6usize),
                ..compositional()
            };
            let label = format!("step {step} capped at {}", capped.plan_cap);
            if let Err(e) = read(&after.0, &after.1, &capped, &label) {
                assert!(matches!(e, VerifyError::PlanSpace(_)), "{label}: {e}");
                // A refused re-derivation leaves no entry behind; a
                // current product refuses at read time and stays.
                if store.stats().entries == 0 {
                    dropped += 1;
                } else {
                    refused_in_place += 1;
                }
            }
        }
        let label = format!("step {step}");
        let warm = read(&after.0, &after.1, &opts, &label).unwrap();
        unpruned += usize::from(!warm.stats.prune_active);
        // And both agree with the enumerative oracle's valid set.
        let oracle = verify(&client, &after.0, &after.1).unwrap();
        assert_eq!(
            warm.report.valid_plans().collect::<Vec<_>>(),
            oracle.valid_plans().collect::<Vec<_>>(),
            "{label}: engines disagree after a mutation"
        );
        // Revert, then re-apply: both states were read before, so
        // every verdict row they need is already in the cache.
        for ((repo, registry), what) in [(&before, "reverted"), (&after, "re-applied")] {
            let revisit = read(repo, registry, &opts, &format!("{label} {what}")).unwrap();
            let computed = revisit.stats.cache.unwrap().verdict.1;
            assert_eq!(computed, 0, "{label} {what}: verdicts recomputed");
        }
    }
    // One build at first sight of the client, and one after each
    // refused re-derivation dropped the entry; every other read is a
    // re-derivation or, when a step left every fingerprint intact, a
    // read-off. A dropped entry counts no read.
    let stats = store.stats();
    assert_eq!(
        stats.builds,
        1 + dropped as u64,
        "unexpected rebuilds: {stats:?}"
    );
    assert_eq!(
        stats.builds + stats.patches + stats.reads,
        (issued - dropped) as u64,
        "every read should resolve as a build, a re-derivation or a read-off: {stats:?}"
    );
    assert!(
        stats.patches >= 300,
        "the stream should mostly force real re-derivations: {stats:?}"
    );
    // The stream reached both ways a lowered cap refuses, and states
    // where pruning is off.
    assert!(
        dropped > 0 && refused_in_place > 0,
        "{dropped} / {refused_in_place}"
    );
    assert!(unpruned > 0, "no step published both r100 bodies");
}

/// A product wider than the shared cache's bound still re-derives
/// incrementally: one publish recomputes exactly the verdicts of the
/// plans that bind the changed location, however many rows the cache
/// evicted while the product was built.
#[test]
fn rederiving_a_product_wider_than_the_cache_recomputes_only_touched_plans() {
    let client = Hist::seq_all((1..=2u32).map(|i| request(i, None, send("q", eps()))));
    // 257² surviving plans > CACHE_LIMIT = 2¹⁶.
    let width = 257usize;
    assert!(width * width > sufs_core::cache::CACHE_LIMIT);
    let mut repo = Repository::new();
    for i in 0..width {
        repo.publish(format!("s{i}"), recv("q", eps()));
    }
    let registry = PolicyRegistry::new();
    let opts = SynthesisOptions {
        plan_cap: width * width,
        ..compositional()
    };
    let store = ProductStore::new();
    let cache = VerifyCache::new();
    let built = store
        .synthesize(&client, &repo, &registry, &opts, Some(&cache))
        .unwrap();
    assert_eq!(built.stats.candidates, width * width);
    assert_eq!(
        built.stats.cache.unwrap().verdict,
        (0, (width * width) as u64)
    );

    // A compliant variant of one location: the same plans survive, and
    // the 2·width − 1 of them that bind `s0` read a changed region.
    repo.publish("s0", offer([("q", eps()), ("zz", eps())]));
    let rederived = store
        .synthesize(&client, &repo, &registry, &opts, Some(&cache))
        .unwrap();
    let info = rederived.stats.product.unwrap();
    assert!(info.reused);
    assert_eq!(info.patched, 1);
    assert_eq!(rederived.stats.candidates, width * width);
    assert_eq!(
        rederived.stats.cache.unwrap().verdict,
        (0, (2 * width - 1) as u64),
        "only the plans binding the changed location are re-verified"
    );
    assert_eq!(rederived.report.valid_plans().count(), width * width);
    assert_eq!(store.stats().builds, 1);
}
