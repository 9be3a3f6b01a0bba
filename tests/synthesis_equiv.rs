//! Seeded equivalence properties for the enumerative reference: with
//! or without the pairwise-compliance cut, `synthesize` must agree with
//! the plain pipeline behind `verify`.
//!
//! Two notions of agreement are asserted, matching the documented
//! guarantees of `sufs_core::synthesize`:
//!
//! * with pruning **off**, the full report (every verdict, every
//!   violation, in order) equals the `verify` baseline's;
//! * with pruning **on**, the *valid plan set* equals the baseline's
//!   (compliance-rejected candidates may be cut before verification).

use sufs_core::scenario::parse_scenario;
use sufs_core::{synthesize, verify, Synthesis, SynthesisOptions};
use sufs_hexpr::builder::*;
use sufs_hexpr::{Hist, ParamValue, PolicyRef};
use sufs_net::{Plan, Repository};
use sufs_policy::{catalog, PolicyRegistry};
use sufs_rng::{Rng, SeedableRng, StdRng};

/// Every mode of the enumerative reference: whether the compliance cut
/// is on.
const MODES: &[bool] = &[false, true];

fn check_equivalence(client: &Hist, repo: &Repository, registry: &PolicyRegistry, label: &str) {
    let baseline = verify(client, repo, registry).unwrap();
    let baseline_valid: Vec<&Plan> = baseline.valid_plans().collect();
    for &prune in MODES {
        let opts = SynthesisOptions {
            prune,
            ..SynthesisOptions::default()
        };
        let synth: Synthesis = synthesize(client, repo, registry, &opts).unwrap();
        if prune {
            let valid: Vec<&Plan> = synth.report.valid_plans().collect();
            assert_eq!(
                valid, baseline_valid,
                "{label}: pruned mode changed the valid plan set"
            );
        } else {
            assert_eq!(
                synth.report.verdicts(),
                baseline.verdicts(),
                "{label}: unpruned mode changed the report"
            );
        }
    }
}

/// A random synthesis scenario: a client of 1–3 request/response
/// sessions (some policy-guarded) over a repository mixing compliant,
/// non-compliant, policy-violating and brokering services.
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
    for i in 0..n_services {
        let chosen = subset(&mut r, 3);
        let reply = choose(chosen.into_iter().map(|l| (l, eps())));
        let resource = if r.gen_bool(0.3) { "evil" } else { "fine" };
        let body = if r.gen_bool(0.3) {
            // A broker: answering exposes a nested request of its own.
            Hist::seq(
                request(100 + i as u32, None, send("w", eps())),
                seq([ev("access", [resource]), reply]),
            )
        } else {
            seq([ev("access", [resource]), reply])
        };
        repo.publish(format!("s{i}"), recv("q", body));
    }
    // Leaves for the brokers' nested requests: one that answers, one
    // that cannot.
    repo.publish("leaf", recv("w", eps()));
    repo.publish("deadleaf", recv("zz", eps()));
    (client, repo, registry)
}

#[test]
fn random_scenarios_are_mode_equivalent() {
    for seed in 0..15u64 {
        let (client, repo, registry) = random_scenario(seed);
        check_equivalence(&client, &repo, &registry, &format!("seed {seed}"));
    }
}

#[test]
fn shipped_scenarios_are_mode_equivalent() {
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
            check_equivalence(
                client,
                &sc.repository,
                &sc.registry,
                &format!("{name}:{client_name}"),
            );
        }
    }
}

#[test]
fn pruned_synthesis_prunes_on_random_scenarios() {
    // Sanity: over the seed sweep, pruning actually fires somewhere —
    // otherwise the equivalence above would be vacuous.
    let mut pruned_total = 0usize;
    for seed in 0..15u64 {
        let (client, repo, registry) = random_scenario(seed);
        let synth = synthesize(
            &client,
            &repo,
            &registry,
            &SynthesisOptions {
                prune: true,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        pruned_total += synth.stats.pruned_subtrees;
    }
    assert!(pruned_total > 0, "no subtree was ever pruned");
}
