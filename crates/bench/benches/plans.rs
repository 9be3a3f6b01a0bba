//! E4 / B3 — plan synthesis: wall time, throughput and pruning
//! speedups across plan spaces of 10²–10⁵ candidates, emitted as
//! machine-readable `BENCH_plans.json`.
//!
//! Unlike the micro-benches, this target is a *harness*: for each
//! workload it runs the enumerative reference in two configurations —
//!
//! | mode         | prune |
//! |--------------|-------|
//! | `sequential` |   —   | (the paper's enumerate-then-verify loop)
//! | `pruned`     |   ✓   | (the same walk with the compliance cut)
//!
//! plus the `compositional` engine: one product build against a fresh
//! [`ProductStore`], then repeated queries reading plans off the
//! maintained product (`query_ms` is the per-query mean). The harness
//! asserts the engines agree (valid plan-set equality for the pruned
//! reference, and the product's full report equals the pruned
//! reference's) and records the numbers.
//!
//! Environment:
//! * `SUFS_BENCH_SMOKE=1` — tiny workloads, for CI;
//! * `SUFS_BENCH_PLANS_OUT=path` — where to write the JSON (default
//!   `BENCH_plans.json` in the working directory);
//! * `SUFS_BENCH_GEN=profile=mesh,services=6,seed=3[,policies=deny+frame][,faults]`
//!   — source the topology from the scenario generator (`sufs gen`)
//!   instead of the inline synthetic builders; the run then measures
//!   that single generated workload.

use std::fmt::Write as _;
use std::time::Instant;

use sufs_bench::{gen_workload_from_env, mixed_responder_repo, multi_request_client};
use sufs_core::{synthesize, Engine, ProductStore, Synthesis, SynthesisOptions};
use sufs_net::Plan;
use sufs_policy::PolicyRegistry;

struct ModeResult {
    wall_ms: f64,
    plans_per_sec: f64,
    pruned_subtrees: Option<usize>,
}

/// One timed synthesis run; folds the wall time into the running
/// minimum. Reps are interleaved across modes (all modes' rep 0, then
/// all modes' rep 1, …) so machine drift on a shared box lands on
/// every mode instead of whichever ran last; the minimum is the honest
/// per-mode estimate because scheduler noise is one-sided.
fn run_once(
    client: &sufs_hexpr::Hist,
    repo: &sufs_net::Repository,
    registry: &PolicyRegistry,
    opts: &SynthesisOptions,
    best_wall: &mut f64,
) -> Synthesis {
    let start = Instant::now();
    let synthesis = synthesize(client, repo, registry, opts).expect("workload verifies");
    *best_wall = best_wall.min(start.elapsed().as_secs_f64());
    synthesis
}

fn mode_result(
    synthesis: &Synthesis,
    opts: &SynthesisOptions,
    best_wall: f64,
    candidates: usize,
) -> ModeResult {
    ModeResult {
        wall_ms: best_wall * 1e3,
        // Throughput over the *whole* candidate space: pruning gets
        // credit for deciding plans it never had to expand.
        plans_per_sec: candidates as f64 / best_wall,
        pruned_subtrees: opts.prune.then_some(synthesis.stats.pruned_subtrees),
    }
}

fn json_mode(out: &mut String, name: &str, m: &ModeResult) {
    write!(
        out,
        "      \"{name}\": {{\"wall_ms\": {:.3}, \"plans_per_sec\": {:.1}",
        m.wall_ms, m.plans_per_sec
    )
    .unwrap();
    if let Some(pruned) = m.pruned_subtrees {
        write!(out, ", \"pruned_subtrees\": {pruned}").unwrap();
    }
    out.push('}');
}

/// One workload for the harness, from either source: the inline
/// builders (with a closed-form valid-plan count) or the scenario
/// generator (whose valid set is pinned by the replay corpus instead).
struct Work {
    label: String,
    requests: usize,
    services: usize,
    client: sufs_hexpr::Hist,
    repo: sufs_net::Repository,
    registry: PolicyRegistry,
    /// `goodʳ` for the inline cells; `None` for generated topologies.
    exact_valid: Option<usize>,
    good_services: Option<usize>,
    /// Provenance tag recorded in the JSON when gen-sourced.
    source: Option<String>,
}

fn main() {
    let smoke = std::env::var("SUFS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let workloads: Vec<Work> = if let Some(gen) = gen_workload_from_env() {
        let services = gen.repo.len();
        vec![Work {
            label: format!(
                "gen({}) client={} r={} s={services}",
                gen.spec, gen.client_name, gen.requests
            ),
            requests: gen.requests,
            services,
            client: gen.client,
            repo: gen.repo,
            registry: gen.registry,
            exact_valid: None,
            good_services: None,
            source: Some(format!("gen:{}", gen.spec)),
        }]
    } else {
        // (requests, good services, bad services): the candidate space
        // is (good+bad)^requests, spanning 10²–10⁵ in the full
        // configuration.
        let cells: &[(usize, usize, usize)] = if smoke {
            &[(2, 2, 2), (3, 2, 2)]
        } else {
            &[(2, 5, 5), (3, 5, 5), (4, 5, 5), (5, 5, 5)]
        };
        cells
            .iter()
            .map(|&(r, good, bad)| Work {
                label: format!("r={r} s={}", good + bad),
                requests: r,
                services: good + bad,
                client: multi_request_client(r),
                repo: mixed_responder_repo(good, bad),
                registry: PolicyRegistry::new(),
                exact_valid: Some(good.pow(r as u32)),
                good_services: Some(good),
                source: None,
            })
            .collect()
    };

    let mut out = String::new();
    out.push_str("{\n");
    write!(
        out,
        "  \"bench\": \"plans\",\n  \"schema_version\": 3,\n  \"smoke\": {smoke},\n"
    )
    .unwrap();
    out.push_str("  \"workloads\": [\n");

    for (wi, w) in workloads.iter().enumerate() {
        let candidates = w.services.pow(w.requests as u32);
        let client = &w.client;
        let repo = &w.repo;
        let registry = &w.registry;
        eprintln!("workload {}: {candidates} candidates", w.label);

        let sequential_opts = SynthesisOptions::default();
        let pruned_opts = SynthesisOptions {
            prune: true,
            ..SynthesisOptions::default()
        };

        let reps = if smoke || candidates >= 100_000 { 2 } else { 3 };
        let mut walls = [f64::INFINITY; 2];
        let (mut seq_synth, mut pruned_synth) = (None, None);
        for _ in 0..reps {
            seq_synth = Some(run_once(
                client,
                repo,
                registry,
                &sequential_opts,
                &mut walls[0],
            ));
            pruned_synth = Some(run_once(
                client,
                repo,
                registry,
                &pruned_opts,
                &mut walls[1],
            ));
        }
        let (seq_synth, pruned_synth) = (seq_synth.unwrap(), pruned_synth.unwrap());
        let sequential = mode_result(&seq_synth, &sequential_opts, walls[0], candidates);
        let pruned = mode_result(&pruned_synth, &pruned_opts, walls[1], candidates);

        // Compositional: one product build, then repeated queries that
        // read plans off the maintained product.
        let comp_opts = SynthesisOptions {
            engine: Engine::Compositional,
            ..SynthesisOptions::default()
        };
        let store = ProductStore::new();
        let start = Instant::now();
        let comp_synth = store
            .synthesize(client, repo, registry, &comp_opts, None)
            .expect("compositional build");
        let comp_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let query_reps = if smoke { 3 } else { 10 };
        let start = Instant::now();
        for _ in 0..query_reps {
            store
                .synthesize(client, repo, registry, &comp_opts, None)
                .expect("compositional query");
        }
        let comp_query_ms = start.elapsed().as_secs_f64() * 1e3 / query_reps as f64;

        // Equivalence: the pruned reference and the product must agree
        // with the sequential reference on the valid plans, and the
        // product's report must equal the pruned reference's.
        let valid = |s: &Synthesis| s.report.valid_plans().cloned().collect::<Vec<Plan>>();
        let expected = valid(&seq_synth);
        assert_eq!(
            seq_synth.report.len(),
            candidates,
            "candidate space does not match services^requests"
        );
        match w.exact_valid {
            // The inline cells have a closed-form count.
            Some(exact) => assert_eq!(expected.len(), exact),
            // Generated topologies always admit the all-honest plan;
            // their exact valid sets are pinned by the replay corpus.
            None => assert!(
                !expected.is_empty(),
                "generated workload admits no valid plan"
            ),
        }
        assert_eq!(
            valid(&pruned_synth),
            expected,
            "pruned synthesis lost valid plans"
        );
        assert_eq!(
            comp_synth.report.verdicts(),
            pruned_synth.report.verdicts(),
            "the compositional report diverged from the pruned reference"
        );
        eprintln!(
            "  sequential {:.1}ms, pruned {:.1}ms, \
             compositional build {comp_build_ms:.1}ms / query {comp_query_ms:.3}ms",
            sequential.wall_ms, pruned.wall_ms
        );

        if wi > 0 {
            out.push_str(",\n");
        }
        out.push_str("    {\n");
        write!(
            out,
            "      \"requests\": {}, \"services\": {}",
            w.requests, w.services
        )
        .unwrap();
        if let Some(good) = w.good_services {
            write!(out, ", \"good_services\": {good}").unwrap();
        }
        if let Some(source) = &w.source {
            write!(out, ", \"source\": \"{source}\"").unwrap();
        }
        write!(
            out,
            ",\n      \"candidates\": {candidates}, \"valid_plans\": {},\n",
            expected.len()
        )
        .unwrap();
        json_mode(&mut out, "sequential", &sequential);
        out.push_str(",\n");
        json_mode(&mut out, "pruned", &pruned);
        out.push_str(",\n");
        writeln!(
            out,
            "      \"compositional\": {{\"build_ms\": {comp_build_ms:.3}, \"query_ms\": {comp_query_ms:.4}, \"query_plans_per_sec\": {:.1}}},",
            candidates as f64 / (comp_query_ms / 1e3)
        )
        .unwrap();
        writeln!(
            out,
            "      \"speedup_pruned\": {:.2}, \"speedup_compositional\": {:.2}",
            sequential.wall_ms / pruned.wall_ms,
            sequential.wall_ms / comp_query_ms
        )
        .unwrap();
        out.push_str("    }");
    }
    out.push_str("\n  ]\n}\n");

    let path = std::env::var("SUFS_BENCH_PLANS_OUT").unwrap_or_else(|_| "BENCH_plans.json".into());
    std::fs::write(&path, &out).expect("write benchmark output");
    eprintln!("wrote {path}");
}
